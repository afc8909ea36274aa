import heapq
import importlib
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from wcfg import (
    Polynomial,
    RationalFunction,
    SystemPolynomial,
    algebraic_system,
    clear_denominators,
    decide_parikh,
    eliminate_to_univariate,
    groebner_basis,
    load_grammar,
    poly_reduce,
    render_system_polynomial,
    system_polynomials,
    univar_gcd_squarefree,
)
from wcfg.cli import main
from wcfg.errors import NotUnivariate, NoUnivariateElement, SymbolMismatch, ZeroIdeal
from wcfg.groebner import (buchberger, lex_key, reduce_basis, s_polynomial,
                           univar_from_polynomial, univar_polynomial)
from wcfg.monomials import mono_divides, mono_gcd, mono_is_one, mono_lcm
from wcfg.polynomials import coefficients, poly_gcd, rational_content

from fixtures import GRAMMARS_DIR, deadline, fixture_path, load_fixture
from system_gen import random_system

SYMS = ("a",)
VARS = ("X1", "X2")


def sp(terms):
    return SystemPolynomial(SYMS, VARS, terms)


def rf(value):
    return Polynomial.const(SYMS, value)


A = Polynomial.variable(SYMS, "a")
ONE = Polynomial.const(SYMS, 1)


def test_monomial_order_eliminates_later_variables_first():
    # X2 outranks any power of X1, so basis elements low in the order
    # are free of the later variables
    assert lex_key((3, 0)) < lex_key((0, 1))
    assert lex_key((0, 0)) < lex_key((1, 0))
    assert lex_key((0, 1)) > lex_key((1, 0))
    assert lex_key((1, 1)) == lex_key((1, 1))


def test_lead_monomial_and_monic():
    p = sp({(1, 0): rf(2), (0, 1): rf(4)})
    assert p.lead_monomial() == (0, 1)
    m = p.monic()
    assert m.terms[(0, 1)].is_one()
    assert m.terms[(1, 0)] == RationalFunction.const(SYMS, Fraction(1, 2))


def test_a_view_clears_to_the_polynomial_it_presents():
    # 2a*X1 + 1 is primitive, so its view X1 + 1/(2a) clears back to it,
    # not to a*X1 + 1/2, a multiple by the lcm of the view's denominators
    p = sp({(1, 0): A.scale(2), (0, 0): ONE})
    view = p.monic()
    assert view.terms[(0, 0)] == RationalFunction(ONE, A.scale(2))
    assert view.cleared() == p
    assert clear_denominators(view) == p
    assert p.cleared() is p


def test_poly_reduce_eliminates_leading_terms():
    basis = [sp({(1, 0): rf(1), (0, 0): -A})]    # X1 - a
    f = sp({(0, 1): rf(1), (2, 0): rf(1)})       # X2 + X1^2
    r = poly_reduce(f, basis)
    # X1^2 reduces to a^2; the normal form X2 + a^2 is already primitive
    assert r.terms == {(0, 1): ONE, (0, 0): A * A}


def test_s_polynomial_cancels_leads():
    f = sp({(2, 0): rf(1), (0, 0): rf(1)})   # X1^2 + 1
    g = sp({(1, 1): rf(1), (1, 0): rf(1)})   # X1 X2 + X1
    s = s_polynomial(f, g)
    lead_f, lead_g = f.lead_monomial(), g.lead_monomial()
    assert all(m not in ((2, 1),) for m in s.terms)
    assert s.terms == {(0, 1): rf(1), (2, 0): rf(-1)}
    # with leading coefficients a and 1 + a, each is the other's multiplier
    f = sp({(2, 0): A, (0, 0): rf(1)})          # a X1^2 + 1
    g = sp({(1, 1): ONE + A, (1, 0): rf(1)})    # (1 + a) X1 X2 + X1
    assert s_polynomial(f, g).terms == {(0, 1): ONE + A, (2, 0): -A}


def test_reduce_basis_makes_elements_monic_and_minimal():
    two_x1 = sp({(1, 0): rf(2)})
    one = RationalFunction.const(SYMS, 1)
    out = reduce_basis([two_x1])
    assert len(out) == 1
    assert out[0].terms == {(1, 0): one}
    # a redundant multiple disappears
    out = reduce_basis([two_x1, sp({(2, 0): rf(5)})])
    assert [p.terms for p in out] == [{(1, 0): one}]


def test_arithmetic_rejects_polynomials_of_different_shapes():
    x_in_xy = SystemPolynomial.variable(SYMS, ("X", "Y"), "X")
    x_in_x = SystemPolynomial.variable(SYMS, ("X",), "X")
    with pytest.raises(SymbolMismatch):
        x_in_xy + x_in_x
    with pytest.raises(SymbolMismatch):
        x_in_xy * x_in_x
    over_a = SystemPolynomial.variable(("a",), VARS, "X1")
    over_b = SystemPolynomial.variable(("b",), VARS, "X2")
    with pytest.raises(SymbolMismatch):
        over_a + over_b


def test_buchberger_closes_under_s_polynomials():
    gens = [
        sp({(2, 0): rf(1), (0, 1): rf(-1)}),  # X1^2 - X2
        sp({(1, 1): rf(1), (0, 0): rf(-1)}),  # X1 X2 - 1
    ]
    basis = buchberger(gens)
    for i, f in enumerate(basis):
        for g in basis[i + 1:]:
            assert poly_reduce(s_polynomial(f, g), basis).is_zero()
    for gen in gens:
        assert poly_reduce(gen, basis).is_zero()


def test_catalan_basis_golden():
    g = load_fixture("catalan.wcfg")
    basis = groebner_basis(system_polynomials(algebraic_system(g)))
    assert [render_system_polynomial(p) for p in basis] == ["X^2 - (1/a)*X + 1"]


def test_binary_tail_basis_golden():
    g = load_fixture("binary_tail.wcfg")
    basis = groebner_basis(system_polynomials(algebraic_system(g)))
    assert [render_system_polynomial(p) for p in basis] == [
        "X1 - (a^3)/(1 - 2*b + b^2)",
        "X2 - (a)/(1 - b)",
    ]


def test_two_letter_star_cfl_basis_golden():
    g = load_fixture("two_letter_star_cfl.wcfg")
    basis = reduce_basis(groebner_basis(system_polynomials(algebraic_system(g))))
    rendered = [render_system_polynomial(p) for p in basis]
    assert len(rendered) == 5
    assert rendered[0] == "X2 - (1)/(1 - a - abar)"
    assert rendered[2] == "D + Dbar - (1)/(1 - a - abar)"
    assert rendered[3] == "Y - (1)/(1 - a - abar)"


def test_unary_double_basis_golden():
    g = load_fixture("unary_double.wcfg")
    basis = reduce_basis(groebner_basis(system_polynomials(algebraic_system(g))))
    rendered = [render_system_polynomial(p) for p in basis]
    assert rendered[0] == "X - (1)/(1 - 2*a)"
    assert rendered[1] == (
        "Dbar^2 + (1 - 2*a - 2*a^2)/(a^2 - 2*a^3)*Dbar"
        " - (2 - 5*a)/(a - 4*a^2 + 4*a^3)"
    )
    assert len(rendered) == 5


# full `wcfg groebner` stdout of every shipped Q document: the reduced
# basis in ascending order, then the univariate element
GROEBNER_STDOUT = {
    "binary_tail": [
        "basis:",
        "X1 - (a^3)/(1 - 2*b + b^2)",
        "X2 - (a)/(1 - b)",
        "g: X1 - (a^3)/(1 - 2*b + b^2)",
    ],
    "catalan": [
        "basis:",
        "X^2 - (1/a)*X + 1",
        "g: X^2 - (1/a)*X + 1",
    ],
    "catalan_cancellation": [
        "basis:",
        "X1^3 - 3*a*X1^2 - (1 - 4*a^2 - 3*a^4)/(a^2)*X1 + (1 - 4*a^2 - a^4)/(a)",
        "X1*Y - a*Y - 1/2*X1^2 - (1/2 - a^2)/(a)*X1 + (1/2 - 1/2*a^2)",
        "Y^2 - (1/a)*Y + 1",
        "Z + Y - X1 + a",
        "g: X1^3 - 3*a*X1^2 - (1 - 4*a^2 - 3*a^4)/(a^2)*X1 + (1 - 4*a^2 - a^4)/(a)",
    ],
    "two_letter_star": [
        "basis:",
        "X1 - (1)/(1 - a - abar)",
        "g: X1 - (1)/(1 - a - abar)",
    ],
    "two_letter_star_cfl": [
        "basis:",
        "X2 - (1)/(1 - a - abar)",
        "Dbar^2 + (1 - a - abar - 2*a*abar)/(a*abar - a^2*abar - a*abar^2)*Dbar"
        " - (a + abar - a^2 - 3*a*abar - abar^2)/(a*abar - 2*a^2*abar"
        " - 2*a*abar^2 + a^3*abar + 2*a^2*abar^2 + a*abar^3)",
        "D + Dbar - (1)/(1 - a - abar)",
        "Y - (1)/(1 - a - abar)",
        "Z - (abar)/(1 - a - abar)*Dbar"
        " - (1 - a - 2*abar)/(1 - 2*a - 2*abar + a^2 + 2*a*abar + abar^2)",
        "g: X2 - (1)/(1 - a - abar)",
    ],
    "unary_double": [
        "basis:",
        "X - (1)/(1 - 2*a)",
        "Dbar^2 + (1 - 2*a - 2*a^2)/(a^2 - 2*a^3)*Dbar - (2 - 5*a)/(a - 4*a^2 + 4*a^3)",
        "D + Dbar - (1)/(1 - 2*a)",
        "Y - (1)/(1 - 2*a)",
        "Z - (a)/(1 - 2*a)*Dbar - (1 - 3*a)/(1 - 4*a + 4*a^2)",
        "g: X - (1)/(1 - 2*a)",
    ],
}


@pytest.mark.parametrize("stem", sorted(GROEBNER_STDOUT))
def test_groebner_subcommand_golden(stem, capsys):
    assert main(["groebner", fixture_path(f"{stem}.wcfg")]) == 0
    assert capsys.readouterr().out == "\n".join(GROEBNER_STDOUT[stem]) + "\n"


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends to the returned list."""
    calls = []
    inner = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_groebner_subcommand_computes_one_basis(monkeypatch, capsys):
    # each wrapped at the name its caller looks up
    cli = importlib.import_module("wcfg.cli")
    calls = count_calls(monkeypatch, cli, "buchberger")
    reductions = count_calls(monkeypatch, cli, "reduce_basis")
    monics = count_calls(monkeypatch, SystemPolynomial, "monic")
    assert main(["groebner", fixture_path("unary_double.wcfg")]) == 0
    assert capsys.readouterr().out == "\n".join(GROEBNER_STDOUT["unary_double"]) + "\n"
    assert len(calls) == 1
    assert len(reductions) == 1
    # one monic view per printed basis element, none cleared again
    assert len(monics) == len(GROEBNER_STDOUT["unary_double"]) - 2 == 5


def test_basis_is_invariant_under_generator_permutation_and_scaling():
    g = load_fixture("unary_double.wcfg")
    gens = system_polynomials(algebraic_system(g))
    reference = {render_system_polynomial(p) for p in reduce_basis(groebner_basis(gens))}
    rng = random.Random(7)
    for _ in range(3):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        scaled = [p.scale(rng.choice([2, -1, Fraction(1, 3)])) for p in shuffled]
        assert ({render_system_polynomial(p) for p in reduce_basis(groebner_basis(scaled))}
                == reference)


def test_random_systems_reduce_their_generators_to_zero():
    rng = random.Random(20260822)
    for _ in range(25):
        gens = random_system(rng)
        basis = groebner_basis(gens)
        for gen in gens:
            assert poly_reduce(gen, basis).is_zero()
        for i, f in enumerate(basis):
            for h in basis[i + 1:]:
                assert poly_reduce(s_polynomial(f, h), basis).is_zero()


def test_the_unit_ideal_of_a_system_with_swelling_gcds():
    # the 20th seed-20261018 draw: its basis took 6 to 9 s while the gcds
    # of its coefficients ran as a pseudo-remainder sequence, and takes
    # hundredths of a second with the heuristic gcd
    rng = random.Random(20261018)
    for _ in range(19):
        random_system(rng)
    gens = random_system(rng)
    with deadline(3):
        basis = groebner_basis(gens)
    assert [render_system_polynomial(g) for g in basis] == ["1"]


def random_reduced_bases(count):
    rng = random.Random(20260822)  # the systems of the test above
    return [reduce_basis(groebner_basis(random_system(rng))) for _ in range(count)]


def test_reduce_basis_output_is_reduced():
    for basis in random_reduced_bases(25):
        leads = [g.lead_monomial() for g in basis]
        assert all(g.lead_term()[1].is_one() for g in basis)
        assert leads == sorted(leads, key=lex_key)
        for i, g in enumerate(basis):
            for j, lead in enumerate(leads):
                if i != j:
                    assert not any(mono_divides(lead, m) for m in g.terms)


def test_reduce_basis_is_idempotent():
    for basis in random_reduced_bases(25):
        assert reduce_basis(basis) == basis


def reduce_by_all_others(basis):
    """Reference inter-reduction: keep the elements whose lead no lower
    kept lead divides, then reduce each by all the others."""
    work = sorted((g.cleared() for g in basis if not g.is_zero()),
                  key=lambda g: lex_key(g.lead_monomial()))
    minimal = []
    for g in work:
        if not any(mono_divides(h.lead_monomial(), g.lead_monomial()) for h in minimal):
            minimal.append(g)
    return [poly_reduce(g, minimal[:i] + minimal[i + 1:]).monic()
            for i, g in enumerate(minimal)]


def shipped_q_systems():
    return [system_polynomials(algebraic_system(load_grammar(path)))
            for path in sorted(GRAMMARS_DIR.glob("*.wcfg"))
            if load_grammar(path).semiring.keyword == "Q"]


def test_reduce_basis_agrees_with_reducing_by_all_others():
    rng = random.Random(20260822)  # the systems of the tests above
    systems = [random_system(rng) for _ in range(25)] + shipped_q_systems()
    for gens in systems:
        basis = buchberger(gens)
        assert reduce_basis(basis) == reduce_by_all_others(basis)


def buchberger_coprime_skip(generators):
    """Reference Buchberger: every pair is formed and taken smallest lcm
    first, ties by index pair; only coprime-lead pairs are skipped, and
    S-polynomials reduce modulo every element found.  It calls
    s_polynomial and poly_reduce through the module, as buchberger does."""
    module = importlib.import_module("wcfg.groebner")
    basis = [f.primitive() for f in generators if not f.is_zero()]
    leads = [f.lead_monomial() for f in basis]
    pairs = [(lex_key(mono_lcm(leads[i], leads[j])), (i, j))
             for j in range(len(basis)) for i in range(j)]
    heapq.heapify(pairs)
    while pairs:
        _, (i, j) = heapq.heappop(pairs)
        if mono_is_one(mono_gcd(leads[i], leads[j])):
            continue
        r = module.poly_reduce(module.s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero():
            continue
        basis.append(r)
        leads.append(r.lead_monomial())
        for k in range(len(basis) - 1):
            heapq.heappush(pairs, (lex_key(mono_lcm(leads[k], leads[-1])), (k, len(basis) - 1)))
    return basis


def assert_minimal_groebner_basis(basis):
    """Monic, ascending, no lead dividing another, and every S-pair
    reducing to zero modulo the basis."""
    leads = [g.lead_monomial() for g in basis]
    assert all(g.lead_term()[1].is_one() for g in basis)
    assert leads == sorted(leads, key=lex_key)
    for i, lead in enumerate(leads):
        assert not any(mono_divides(lead, other) for other in leads[:i] + leads[i + 1:])
    for i, f in enumerate(basis):
        for h in basis[i + 1:]:
            assert poly_reduce(s_polynomial(f, h), basis).is_zero()


def assert_agrees_with_the_reference(gens):
    basis = groebner_basis(gens)
    assert_minimal_groebner_basis(basis)
    assert reduce_basis(basis) == reduce_basis(buchberger_coprime_skip(gens))


def test_groebner_basis_agrees_with_the_coprime_skip_reference():
    rng = random.Random(20260822)  # the systems of the tests above
    systems = [random_system(rng) for _ in range(25)]
    rng = random.Random(20261018)  # the draws before the swelling one
    systems += [random_system(rng) for _ in range(19)]
    for gens in systems + shipped_q_systems():
        assert_agrees_with_the_reference(gens)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_groebner_basis_agrees_with_the_reference_on_random_systems(seed):
    assert_agrees_with_the_reference(random_system(random.Random(seed)))


def test_pair_criteria_skip_s_polynomials_on_unary_double(monkeypatch):
    gens = system_polynomials(algebraic_system(load_fixture("unary_double.wcfg")))
    calls = count_calls(monkeypatch, importlib.import_module("wcfg.groebner"), "s_polynomial")
    basis = buchberger(gens)
    formed = len(calls)
    calls.clear()
    assert reduce_basis(buchberger_coprime_skip(gens)) == reduce_basis(basis)
    assert (formed, len(calls)) == (7, 15)


def test_decide_reads_the_minimal_basis_without_reducing_it(monkeypatch):
    calls = count_calls(monkeypatch, importlib.import_module("wcfg.groebner"), "reduce_basis")
    report = decide_parikh(load_fixture("catalan_cancellation.wcfg"))
    assert report.verdict == "holds"
    assert calls == []


def test_normal_forms_are_canonical():
    # f and f + t*g differ by an ideal element, so a reduced basis gives
    # them one normal form
    rng = random.Random(20261019)
    for basis in random_reduced_bases(25):
        syms, variables = basis[0].syms, basis[0].variables
        cleared = [clear_denominators(g) for g in basis]
        f = sum(cleared, SystemPolynomial.variable(syms, variables, variables[0]))
        f = f * f
        for g in cleared:
            mono = tuple(rng.randint(0, 1) for _ in variables)
            t = rng.choice([-2, 1, Fraction(1, 3)])
            assert poly_reduce(f + g.mul_term(mono, t), basis) == poly_reduce(f, basis)


def test_normal_forms_agree_modulo_any_basis_of_the_ideal():
    # the reduced basis comes as monic views over Q(a, b), cleared on
    # entry; buchberger's unreduced basis is over Q[a, b] already
    rng = random.Random(20260822)  # the systems of the tests above
    nonzero = 0
    for _ in range(25):
        gens = random_system(rng)
        reduced, unreduced = groebner_basis(gens), buchberger(gens)
        syms, variables = gens[0].syms, gens[0].variables
        x = SystemPolynomial.variable(syms, variables, variables[0])
        y = SystemPolynomial.variable(syms, variables, variables[-1])
        a = SystemPolynomial(syms, variables, {(0,) * len(variables): Polynomial.variable(syms, "a")})
        for f in (x * y + a, (x + y + a) * (x - a) * y, gens[0] * x + a * y):
            r = poly_reduce(f, reduced)
            assert r == poly_reduce(f, unreduced)
            if r.is_zero():
                continue
            nonzero += 1
            coeffs = list(r.terms.values())
            content = coeffs[0]
            for c in coeffs[1:]:
                content = poly_gcd(content, c)
            assert content.is_constant() and rational_content(coeffs) == 1
            assert r.lead_term()[1].first_term()[1] > 0
            for g in reduced:
                assert not any(mono_divides(g.lead_monomial(), m) for m in r.terms)
    assert nonzero > 25  # 33 of the 75 normal forms are nonzero


def test_eliminate_to_univariate_golden():
    g = load_fixture("catalan.wcfg")
    univar = eliminate_to_univariate(algebraic_system(g))
    assert render_system_polynomial(univar) == "X^2 - (1/a)*X + 1"


def test_eliminate_to_univariate_requires_an_element():
    # the circular system X1 = X2, X2 = X1 eliminates to nothing
    from wcfg.series import AlgebraicSystem

    system = AlgebraicSystem(
        semiring=load_fixture("catalan.wcfg").semiring,
        terminals=SYMS,
        variables=("X1", "X2"),
        equations=(
            ((Fraction(1), (0,), (0, 1)),),
            ((Fraction(1), (0,), (1, 0)),),
        ),
    )
    with pytest.raises(NoUnivariateElement):
        eliminate_to_univariate(system)


def test_univar_polynomial_round_trip():
    # the catalan basis element X^2 - (1/a)*X + 1 is cleared on the way in
    g = load_fixture("catalan.wcfg")
    univar = eliminate_to_univariate(algebraic_system(g))
    poly = univar_polynomial(univar)
    assert poly == Polynomial(("a", "X"), {(1, 2): 1, (0, 1): -1, (1, 0): 1})
    rebuilt = univar_from_polynomial(univar, poly)
    assert render_system_polynomial(rebuilt) == "a*X^2 - X + a"
    assert rebuilt.monic() == univar


def test_univar_polynomial_rejects_a_second_variable():
    # X1 - X2 involves X2 besides the first variable X1
    with pytest.raises(NotUnivariate, match="X1"):
        univar_polynomial(sp({(1, 0): ONE, (0, 1): -ONE}))


def test_the_zero_ideal_has_no_basis():
    with pytest.raises(ZeroIdeal):
        buchberger([sp({}), sp({})])


def test_coefficients_in_last_are_ascending_over_the_other_symbols():
    poly = Polynomial(("a", "X"), {(1, 2): 3, (0, 0): -1})
    assert coefficients(poly, -1) == [
        Polynomial.const(SYMS, -1), Polynomial.zero(SYMS), A.scale(3)]
    assert coefficients(Polynomial.zero(("a", "X")), -1) == []


def test_univar_gcd_squarefree():
    x_minus_a = SystemPolynomial(SYMS, ("X",), {(0,): -A, (1,): ONE})
    square = x_minus_a * x_minus_a
    assert render_system_polynomial(univar_gcd_squarefree(square).monic()) == "X - a"
    # already squarefree inputs come back unchanged up to normalisation
    univar = eliminate_to_univariate(algebraic_system(load_fixture("catalan.wcfg")))
    assert (render_system_polynomial(univar_gcd_squarefree(univar).monic())
            == "X^2 - (1/a)*X + 1")
    # X^2 (X - 1) loses the repeated factor
    cubic = SystemPolynomial(SYMS, ("X",), {(2,): rf(-1), (3,): rf(1)})
    assert render_system_polynomial(univar_gcd_squarefree(cubic).monic()) == "X^2 - X"


SYMS2 = ("a", "b")
_poly2 = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-3, 3).map(Fraction), max_size=3,
).map(lambda d: Polynomial(SYMS2, d))


@given(c=_poly2, u=_poly2, v=st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_squarefree_part_of_a_planted_square(c, u, v):
    # p = c * f^2 * g over Q[a, b][X] with a content c free of X: the
    # squarefree part is f * g.  A constant root v makes g free of a and
    # b, so a derivative taken in a terminal instead of X changes the
    # answer whatever u is.
    assume(not c.is_constant())
    v = Polynomial.const(SYMS2, v)
    assume(u != v)
    one = Polynomial.const(SYMS2, 1)
    f = SystemPolynomial(SYMS2, ("X",), {(0,): -u, (1,): one})
    g = SystemPolynomial(SYMS2, ("X",), {(0,): -v, (1,): one})
    p = SystemPolynomial(SYMS2, ("X",), {(0,): c}) * f * f * g
    assert univar_gcd_squarefree(p).monic() == (f * g).monic()


_system2 = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1)), _poly2, min_size=1, max_size=3,
).map(lambda d: SystemPolynomial(SYMS2, VARS, d)).filter(lambda p: not p.is_zero())
_factor2 = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=4), _poly2).filter(bool)


@given(p=_system2, h=_factor2)
@settings(max_examples=60, deadline=None)
def test_a_view_clears_to_one_primitive_polynomial(p, h):
    # p and p*h present one view, which clears to one polynomial: the
    # primitive part of p, whose coefficients have a constant gcd and
    # rational content 1
    cleared = p.scale(h).monic().cleared()
    assert cleared == clear_denominators(p.monic())
    assert cleared.monic() == p.monic()
    coeffs = list(cleared.terms.values())
    assert reduce(poly_gcd, coeffs).is_constant() and rational_content(coeffs) == 1
