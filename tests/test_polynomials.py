from fractions import Fraction
from functools import reduce
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from wcfg import Polynomial, RationalFunction, polynomials
from wcfg.errors import (
    DivisionByZeroPolynomial,
    NotDivisible,
    SymbolMismatch,
    ZeroDenominator,
)
from wcfg.modular import POINT_BASES, PRIMES, images
from wcfg.monomials import mono_mul
from wcfg.polynomials import (
    add_terms,
    coefficients,
    from_coefficients,
    mul_terms,
    poly_divexact,
    poly_gcd,
    poly_squarefree,
    render_fraction,
    render_polynomial,
)

from fixtures import deadline

SYMS = ("a", "b")


def poly_divides(q, p):
    """Does q divide p exactly?"""
    try:
        return poly_divexact(p, q) is not None
    except NotDivisible:
        return False


a = Polynomial.variable(SYMS, "a")
b = Polynomial.variable(SYMS, "b")
one = Polynomial.const(SYMS, 1)
zero = Polynomial.zero(SYMS)


def test_constructors():
    assert zero.is_zero()
    assert one.is_one()
    assert Polynomial.const(SYMS, 0).is_zero()


def test_arithmetic_small_identity():
    # (a + b)^2 = a^2 + 2ab + b^2
    square = (a + b) * (a + b)
    assert square == a * a + a * b.scale(2) + b * b
    assert square.total_degree() == 2
    assert (square - square).is_zero()


def test_constant_term_and_degrees():
    p = one + a.scale(2) + a * b.scale(-3)
    assert p.constant_term() == 1
    assert p.total_degree() == 2
    assert zero.total_degree() == -1


def test_first_term_uses_ascending_canonical_order():
    p = a * b + b.scale(4)
    assert p.first_term() == ((0, 1), Fraction(4))


def test_content_is_signed_and_primitive_part_matches():
    p = a.scale(Fraction(-4, 3)) + b.scale(Fraction(-2, 3))
    c = p.content()
    assert c == Fraction(-2, 3)
    assert p.primitive_part().scale(c) == p
    # the primitive part has integer coprime coefficients
    prim = p.primitive_part()
    assert prim == a.scale(2) + b
    assert zero.content() == 0


def test_render_polynomial_ascending_with_signs():
    p = one - a.scale(2) + a * a * b.scale(Fraction(1, 2))
    assert render_polynomial(p) == "1 - 2*a + 1/2*a^2*b"
    assert render_polynomial(zero) == "0"
    assert render_polynomial(b - a) == "-a + b"


def test_divexact_and_divides():
    p = (one - b) * (one - b)
    q = one - b
    assert poly_divides(q, p)
    assert poly_divexact(p, q) == q
    assert not poly_divides(a, p)
    with pytest.raises(DivisionByZeroPolynomial):
        poly_divexact(p, zero)


def test_gcd_basic_cases():
    assert poly_gcd(zero, a) == a
    assert poly_gcd(a * b, a * a) == a
    p = (one - b) * (one + a)
    q = (one - b) * (one - a)
    assert poly_gcd(p, q) == one - b
    # result is normalised: first ascending coefficient positive
    assert poly_gcd(p.scale(-2), q.scale(4)) == one - b


# ---------------------------------------------------------------------------
# hypothesis: ring axioms and gcd laws on random small polynomials
# ---------------------------------------------------------------------------

_coeff = st.integers(min_value=-4, max_value=4).map(Fraction)
_mono = st.tuples(st.integers(0, 2), st.integers(0, 2))
_poly = st.dictionaries(_mono, _coeff, max_size=4).map(lambda d: Polynomial(SYMS, d))


def collected(terms):
    """Sum the coefficients of (monomial, coefficient) pairs by monomial,
    then drop the zero sums."""
    out = {}
    for m, c in terms:
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


@given(p=_poly, q=_poly, cancel=st.booleans())
def test_term_arithmetic_matches_a_naive_collection(p, q, cancel):
    if cancel:  # every term of p cancels in p + q
        q = Polynomial(SYMS, {**q.terms, **(-p).terms})
    for x, y in ((p, q), (p + q, p - q)):
        assert add_terms(x.terms, y.terms) == collected([*x.terms.items(), *y.terms.items()])
        assert mul_terms(x.terms, y.terms) == collected(
            (mono_mul(m1, m2), c1 * c2) for m1, c1 in x.terms.items() for m2, c2 in y.terms.items())


@given(p=_poly, q=_poly, r=_poly)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p
    assert p * one == p
    assert (p - p).is_zero()


@given(p=_poly, q=_poly)
@settings(max_examples=60)
def test_gcd_divides_both_and_leaves_coprime_cofactors(p, q):
    g = poly_gcd(p, q)
    if p.is_zero() and q.is_zero():
        assert g.is_zero()
        return
    assert poly_divides(g, p) and poly_divides(g, q)
    # maximality: no common factor is left in the cofactors
    assert poly_gcd(poly_divexact(p, g), poly_divexact(q, g)).is_constant()


SYMS3 = ("a", "b", "c")
_poly3 = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)), max_size=4
).map(lambda d: Polynomial(SYMS3, d))


def prs_gcd(p, q):
    """poly_gcd with the heuristic giving up at every call, so that every
    gcd, the recursive ones too, is the pseudo-remainder sequence's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polynomials, "_heu_gcd", lambda f, g: None)
        return poly_gcd(p, q)


@given(h=_poly3, p=_poly3, q=_poly3)
@settings(max_examples=60)
def test_gcd_keeps_a_planted_common_factor(h, p, q):
    hp, hq = h * p, h * q
    assume(not hp.is_zero() and not hq.is_zero())
    g = poly_gcd(hp, hq)
    assert poly_divides(g, hp) and poly_divides(g, hq)
    assert poly_divides(h, g)
    assert g == prs_gcd(hp, hq)


@given(h=_poly3, p=_poly3, q=_poly3)
@settings(max_examples=60)
def test_a_heuristic_with_no_tries_falls_back_to_the_same_gcd(h, p, q):
    hp, hq = h * p, h * q
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polynomials, "_HEU_TRIES", 0)
        fallback = poly_gcd(hp, hq)
    assert fallback == poly_gcd(hp, hq)


def test_the_prs_needs_the_monomial_content_split_off():
    # poly_gcd splits off the monomial content before _gcd_primitive; with
    # that step removed, this PRS gcd ran for more than 300 s (Python
    # 3.11, one core), against 0.13 s with it
    a3, b3, c3 = (Polynomial.variable(SYMS3, s) for s in SYMS3)
    h = a3 * a3 * b3 * b3 * c3
    p = Polynomial(SYMS3, {(1, 0, 1): Fraction(-1, 2), (2, 0, 2): 1,
                           (1, 2, 2): Fraction(-1, 3), (1, 1, 3): -2})
    q = Polynomial(SYMS3, {(0, 2, 1): Fraction(2, 3), (2, 2, 0): -3,
                           (2, 0, 2): Fraction(2, 3), (1, 0, 3): 2})
    with deadline(3):
        assert render_polynomial(prs_gcd(h * p, h * q)) == "a^2*b^2*c"


def test_a_failed_evaluation_point_is_retried_before_the_fallback(monkeypatch):
    # at xi = 2*1 + 29 = 31, a + 1 and a^2 + 31 evaluate to 32 and 992,
    # whose gcd 32 rebuilds as a + 1, which does not divide a^2 + 31;
    # the next point, 84, gives the gcd 1
    p, q = a + one, a * a + Polynomial.const(SYMS, 31)
    fallback, calls = polynomials._gcd_prs, []

    def counted(f, g):
        calls.append((f, g))
        return fallback(f, g)

    monkeypatch.setattr(polynomials, "_gcd_prs", counted)
    assert poly_gcd(p, q) == one and calls == []
    monkeypatch.setattr(polynomials, "_HEU_TRIES", 1)
    assert poly_gcd(p, q) == one and calls == [(p, q)]


@given(p=_poly, q=_poly)
@settings(max_examples=60)
def test_exact_division_round_trip(p, q):
    for v in (0, 1, -1):
        cs = coefficients(p, v)
        assert cs[-1] if cs else p.is_zero()
        assert from_coefficients(SYMS, v, cs) == p
    if q.is_zero():
        return
    prod = p * q
    assert poly_divides(q, prod)
    assert poly_divexact(prod, q) == p


def test_guarded_invariants_raise_typed_errors():
    c = Polynomial.variable(("c",), "c")
    with pytest.raises(SymbolMismatch):
        a + c
    with pytest.raises(SymbolMismatch):
        poly_gcd(a, c)


# ---------------------------------------------------------------------------
# squarefree part, and the tries of the no-root proof
# ---------------------------------------------------------------------------

SYMSX = ("a", "b", "X")
ax, bx, X = (Polynomial.variable(SYMSX, s) for s in SYMSX)
onex = Polynomial.const(SYMSX, 1)


def derivative(p):
    """dp/dX for X the last symbol."""
    return Polynomial(p.syms, {m[:-1] + (m[-1] - 1,): c * m[-1]
                               for m, c in p.terms.items() if m[-1]})


def assert_is_squarefree_part(part, p):
    """part divides p; p's primitive part in X, p over the gcd of its
    coefficients in X, divides part^deg_X(p), so part has every factor of
    p that involves X; and part is coprime to its derivative, so each of
    them once and no factor free of X."""
    cs = coefficients(p, -1)
    content = from_coefficients(p.syms, -1, [reduce(poly_gcd, cs)])
    assert poly_divides(part, p)
    assert poly_divides(poly_divexact(p, content), prod([part] * (len(cs) - 1)))
    assert poly_gcd(part, derivative(part)).is_constant()


_f, _g = X + ax, X - bx * bx + onex
_content = (ax + bx.scale(2)) * bx.scale(Fraction(-3, 2))
_quadratic = X * X - ax * X + onex
_lead = onex  # vanishes at every fixed evaluation point
for _base in POINT_BASES:
    _lead = _lead * (ax - Polynomial.const(SYMSX, _base))
_unlucky = _lead * X * X + bx * X + onex
_primes = prod(PRIMES)
_denominator_p = X * X + ax.scale(Fraction(1, _primes)) * X + onex
_denominator_1009 = X * X + ax.scale(Fraction(1, 1009)) * X + onex
_lead_primes = X * X.scale(_primes) - ax * X + onex

# p and its squarefree part
SQUAREFREE_CASES = {
    "content": (_content * _quadratic, _quadratic.scale(Fraction(-3, 2))),
    "planted-square": ((_f * _f * _g).scale(Fraction(5, 7)), (_f * _g).scale(Fraction(5, 7))),
    "lead-vanishes": (_unlucky, _unlucky),
    # every prime divides a denominator, so every prime is skipped
    "denominator-p": (_denominator_p, _denominator_p),
    # 1009 is skipped, and the next prime gives a try
    "denominator-1009": (_denominator_1009, _denominator_1009),
    # the lead vanishes modulo every prime, so no try is left
    "lead-primes": (_lead_primes, _lead_primes),
}


@pytest.mark.parametrize("name", sorted(SQUAREFREE_CASES))
def test_squarefree_part_of_each_case(name):
    p, part = SQUAREFREE_CASES[name]
    assert poly_squarefree(p) == part
    assert_is_squarefree_part(part, p)


def test_the_squarefree_tries_skip_a_prime_and_a_lead():
    assert next(images(_denominator_1009.terms))[0] == PRIMES[1]
    assert next(images(_lead_primes.terms), None) is None


_monox = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3))
_polyx = st.dictionaries(_monox, _coeff, max_size=4).map(lambda d: Polynomial(SYMSX, d))
_polyab = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2), st.just(0)),
                          _coeff, min_size=1, max_size=3).map(lambda d: Polynomial(SYMSX, d))


@given(content=_polyab, p=_polyx, square=st.booleans())
@settings(max_examples=80)
def test_squarefree_part_divides_p_and_is_squarefree(content, p, square):
    p = content * (p * p if square else p)
    assume(any(m[-1] for m in p.terms))
    assert_is_squarefree_part(poly_squarefree(p), p)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


def test_ratfun_reduces_to_lowest_terms():
    f = RationalFunction((one - b) * a, (one - b) * (one - b))
    assert f.num == a
    assert f.den == one - b


def test_ratfun_denominator_normalisation():
    # denominator's first ascending coefficient is exactly +1
    f = RationalFunction(a, (one - b).scale(-3))
    assert f.den == one - b
    assert f.num == a.scale(Fraction(-1, 3))


def test_ratfun_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        RationalFunction(one, zero)


def test_render_ratfun_forms():
    assert render_fraction(a, b) == "(a/b)"
    assert render_fraction(one, one - b) == "(1)/(1 - b)"
    assert repr(RationalFunction(one, one - b)) == "RationalFunction((1)/(1 - b))"
