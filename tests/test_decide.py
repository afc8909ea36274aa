import importlib
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from wcfg import (
    DegenerateLeadingTerm,
    IterationCapExceeded,
    NotCycleFree,
    Polynomial,
    SystemPolynomial,
    WrongSemiring,
    algebraic_system,
    clear_denominators,
    decide_parikh,
    discriminate_factor,
    eliminate_to_univariate,
    grammar_from_linear,
    grammar_series,
    is_cycle_free,
    load_grammar,
    parikh_series_bruteforce,
    parse_grammar,
    rational_reconstruct,
    render_report,
    render_system_polynomial,
)
from wcfg.errors import NoUnivariateElement, SymbolMismatch
from wcfg.linalg import nullspace
from wcfg.groebner import univar_gcd_squarefree, univar_polynomial
from wcfg.modular import POINT_BASES, no_root
from wcfg.monomials import monomials_up_to_degree
from wcfg.polynomials import coefficients_in_last
from wcfg.semirings import RATIONALS
from wcfg.series import TruncatedSeries, approximate, eval_poly_at_series

from fixtures import GRAMMARS_DIR, deadline, load_fixture

GOLDEN_REPORTS = {
    "catalan.wcfg": """\
verdict: fails
q: a*X^2 - X + a
basis_g: X^2 - (1/a)*X + 1
discrimination_order: 0""",
    "two_letter_star_cfl.wcfg": """\
verdict: holds
q: (1 - a - abar)*X2 - 1
basis_g: X2 - (1)/(1 - a - abar)
discrimination_order: 0
witness:
  semiring Q
  terminals a abar
  variables X2
  start X2
  rule X2 -> eps : 1
  rule X2 -> a X2 : 1
  rule X2 -> abar X2 : 1""",
    "binary_tail.wcfg": """\
verdict: holds
q: (1 - 2*b + b^2)*X1 - a^3
basis_g: X1 - (a^3)/(1 - 2*b + b^2)
discrimination_order: 0
witness:
  semiring Q
  terminals a b
  variables X1
  start X1
  rule X1 -> a a a : 1
  rule X1 -> b X1 : 2
  rule X1 -> b b X1 : -1""",
    "unary_double.wcfg": """\
verdict: holds
q: (1 - 2*a)*X - 1
basis_g: X - (1)/(1 - 2*a)
discrimination_order: 0
witness:
  semiring Q
  terminals a
  variables X
  start X
  rule X -> eps : 1
  rule X -> a X : 2""",
    "catalan_cancellation.wcfg": """\
verdict: holds
q: X1 - a
basis_g: X1^3 - 3*a*X1^2 - (1 - 4*a^2 - 3*a^4)/(a^2)*X1 + (1 - 4*a^2 - a^4)/(a)
discrimination_order: 11
witness:
  semiring Q
  terminals a
  variables X1
  start X1
  rule X1 -> a : 1""",
}


GOLDEN_REASONS = {
    "catalan.wcfg": "no root mod 1009 at point 2718281",
    "two_letter_star_cfl.wcfg": "linear certificate",
    "binary_tail.wcfg": "linear certificate",
    "unary_double.wcfg": "linear certificate",
    "catalan_cancellation.wcfg": "reconstructed factor at order 11",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_fixture_reports(name):
    report = decide_parikh(load_fixture(name))
    assert render_report(report) == GOLDEN_REPORTS[name]
    assert report.reason == GOLDEN_REASONS[name]


# random-4x2x9-143 of the decide-q benchmark corpus (seed 1): without the
# no-root proof it reconstructs at order 21 (D = 10) and finds the space
# empty; the Fraction elimination of c and d together took about 2 s
RECONSTRUCTS_AT_ORDER_21 = """\
semiring Q
terminals a b
variables V1 V2 V3 V4
start V1
rule V1 -> b a : 1/2
rule V2 -> a : 2
rule V3 -> a a : 3/2
rule V4 -> b : 1/2
rule V4 -> V1 : -2
rule V4 -> V2 a : 1
rule V1 -> a V4 V3 : 1
rule V3 -> V4 V4 : 1
rule V2 -> a b : 3
"""


def test_an_inconclusive_rank_falls_back_to_the_exact_nullspace(monkeypatch):
    g = parse_grammar(RECONSTRUCTS_AT_ORDER_21)
    proved = decide_parikh(g)
    monkeypatch.setattr("wcfg.decide.no_root", lambda terms: None)
    report = decide_parikh(load_fixture("catalan.wcfg"))
    assert render_report(report) == GOLDEN_REPORTS["catalan.wcfg"].replace(
        "discrimination_order: 0", "discrimination_order: 3")
    assert report.reason == "empty space by exact nullspace at order 3"
    with deadline(3):
        report = decide_parikh(g)
    assert render_report(report) == render_report(proved).replace(
        "discrimination_order: 0", "discrimination_order: 21")
    assert report.reason == "empty space by exact nullspace at order 21"


def series_in_a(*coeffs):
    """The truncated series sum coeffs[i] * a^i in Q[[a]]."""
    return TruncatedSeries(RATIONALS, ("a",), len(coeffs) - 1,
                           {(i,): Fraction(c) for i, c in enumerate(coeffs)})


def test_rational_reconstruct_certificate_and_its_empty_branch():
    # with D = 0, c alone solves the one row of degree 1, (r1_1), and
    # only c = 0 does exactly when r1_1 != 0
    assert rational_reconstruct(series_in_a(1, 2), 0, 1) is None
    # rank deficient: the exact nullspace finds c = d = 1
    one = Polynomial.const(("a",), 1)
    assert rational_reconstruct(series_in_a(1, 0), 0, 1) == (one, one)


@st.composite
def bounded_ratios(draw):
    """(D, c0, d0): polynomials of degree at most D <= 2 in one or two
    symbols, c0 with a nonzero constant term."""
    syms = ("a", "b")[:draw(st.integers(1, 2))]
    D = draw(st.integers(0, 2))
    monos = monomials_up_to_degree(len(syms), D)
    coeffs = st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos))
    c0 = dict(zip(monos, draw(coeffs)))
    c0[(0,) * len(syms)] = draw(st.sampled_from([-2, -1, 1, 2, 3]))
    d0 = dict(zip(monos, draw(coeffs)))
    return D, Polynomial(syms, c0), Polynomial(syms, d0)


@given(bounded_ratios())
@settings(max_examples=60, deadline=None)
def test_order_2d_plus_1_pins_down_a_bounded_ratio(case):
    # c*d0 - c0*d has degree <= 2D and vanishes through order 2D + 1
    D, c0, d0 = case
    order = 2 * D + 1
    r1 = grammar_series(grammar_from_linear(c0, d0, c0.syms, "X"), order)
    c, d = rational_reconstruct(r1, D, order)
    assert c * d0 == c0 * d


ENTRIES = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 1, 2, 3, 6]))


@given(st.lists(st.lists(ENTRIES, min_size=4, max_size=4), max_size=5))
def test_the_nullspace_is_annihilated_and_matches_the_rank(rows):
    basis = nullspace(rows, 4)
    for v in basis:
        assert all(isinstance(x, int) for x in v)
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in rows)
    # each vector ends at its own free column, in ascending order, so
    # the vectors are independent
    ends = [max(j for j, x in enumerate(v) if x) for v in basis]
    assert ends == sorted(set(ends))
    # rank-nullity, with the row rank from the nullspace of the transpose
    transpose = [list(col) for col in zip(*rows)]
    assert 4 - len(basis) == len(rows) - len(nullspace(transpose, len(rows)))


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_certificate_annihilates_the_series(name):
    g = load_fixture(name)
    report = decide_parikh(g)
    series = grammar_series(g, 12)
    assert all(isinstance(c, Polynomial) for c in report.q.terms.values())
    coeffs = coefficients_in_last(univar_polynomial(report.q))
    assert eval_poly_at_series(coeffs, series, 12).is_zero()


def test_holding_witnesses_reproduce_the_series():
    for name, report_text in GOLDEN_REPORTS.items():
        if "verdict: holds" not in report_text:
            continue
        g = load_fixture(name)
        report = decide_parikh(g)
        assert grammar_series(report.witness, 8) == grammar_series(g, 8), name


def test_failing_verdict_has_no_witness():
    report = decide_parikh(load_fixture("catalan.wcfg"))
    assert report.verdict == "fails"
    assert report.witness is None
    assert report.q.degree_in("X") == 2


def test_decision_is_stable_under_declaration_permutation():
    base = load_fixture("unary_double.wcfg")
    reference = decide_parikh(base)
    permuted = parse_grammar(
        "semiring Q\n"
        "terminals a\n"
        "variables X Z Y D Dbar\n"
        "start X\n"
        "rule Z -> D a Z : 1\n"
        "rule Z -> D : 1\n"
        "rule Y -> a Y : 2\n"
        "rule Y -> eps : 1\n"
        "rule D -> a D a D : 1\n"
        "rule D -> eps : 1\n"
        "rule Dbar -> D a Y : 1\n"
        "rule Dbar -> D a Z : 1\n"
        "rule X -> D : 1\n"
        "rule X -> Dbar : 1\n"
    )
    report = decide_parikh(permuted)
    assert render_system_polynomial(report.q) == \
        render_system_polynomial(reference.q)
    assert set(report.witness.rules) == set(reference.witness.rules)


def test_decide_requires_rational_weights():
    for name in ("exponential_ambiguity.wcfg", "tropical_paths.wcfg"):
        with pytest.raises(WrongSemiring):
            decide_parikh(load_fixture(name))


def test_decide_requires_cycle_freeness():
    g = parse_grammar(
        "semiring Q\nterminals a\nvariables X Y\nstart X\n"
        "rule X -> Y : 1\nrule Y -> X : 1\nrule Y -> a : 1\n"
    )
    with pytest.raises(NotCycleFree):
        decide_parikh(g)


def test_linear_form_normalizes_the_recursion():
    syms = ("a",)
    one = Polynomial.const(syms, 1)
    a = Polynomial.variable(syms, "a")
    # (2 - 4a) X = 2  =>  X = 2a X + 1
    witness = grammar_from_linear(one.scale(2) - a.scale(4), one.scale(2), syms, "X")
    assert [(r.rhs, r.weight) for r in witness.rules] == [
        ((), Fraction(1)), (("a", "X"), Fraction(2))]


def test_linear_form_rejects_vanishing_leading_coefficient():
    syms = ("a",)
    a = Polynomial.variable(syms, "a")
    with pytest.raises(DegenerateLeadingTerm):
        grammar_from_linear(a, a, syms, "X")


def test_clear_denominators_golden():
    univar = eliminate_to_univariate(
        algebraic_system(load_fixture("catalan.wcfg")))
    cleared = clear_denominators(univar)
    assert render_system_polynomial(cleared) == "a*X^2 - X + a"
    assert all(isinstance(c, Polynomial) for c in cleared.terms.values())


def test_clear_denominators_fixes_content_and_sign():
    syms = ("a",)
    # -2/3 X + 1/3 picks up content 1/3 and a sign flip: canonical 2 X - 1
    p = SystemPolynomial(syms, ("X",), {(0,): Polynomial.const(syms, Fraction(1, 3)),
                                        (1,): Polynomial.const(syms, Fraction(-2, 3))})
    cleared = clear_denominators(p)
    assert render_system_polynomial(cleared) == "2*X - 1"
    # content 1 and the sign already fixed: nothing to rebuild
    assert clear_denominators(cleared) is cleared


def test_rational_reconstruction_finds_the_geometric_law():
    g = load_fixture("unary_double.wcfg")
    r1 = approximate(algebraic_system(g), 6)[0]
    c, d = rational_reconstruct(r1, 1, 3)
    assert c == Polynomial(("a",), {(0,): Fraction(1), (1,): Fraction(-2)})
    assert d == Polynomial.const(("a",), 1)


def test_rational_reconstruction_can_fail():
    # the Catalan-style series has no degree-1 rational representation
    g = load_fixture("catalan.wcfg")
    r1 = approximate(algebraic_system(g), 8)[0]
    assert rational_reconstruct(r1, 1, 5) is None


def linear_in_x(n, syms=("a", "X")):
    """(1 - n*a) X - 1 over syms, read as the symbols (a, X)."""
    return Polynomial(syms, {(0, 1): 1, (1, 1): -n, (0, 0): -1})


def test_discriminate_factor_prefers_the_annihilating_candidate():
    g = load_fixture("unary_double.wcfg")
    system = algebraic_system(g)
    good = linear_in_x(2)  # (1-2a) X - 1
    bad = linear_in_x(1)   # (1-a) X - 1
    assert discriminate_factor([good], system) == 0
    assert discriminate_factor([bad, good], system) == 1
    with pytest.raises(IterationCapExceeded, match="eliminated"):
        discriminate_factor([bad, bad.scale(2)], system)
    # both vanish: the degree bound 1*1 + 1*1 = 2 stops at the first order
    with pytest.raises(IterationCapExceeded, match="ambiguous at order 4,"):
        discriminate_factor([good, good.scale(2)], system)
    # (n, D) = (1, 1) and (3, 3): the bound 6 stops the doubling at 8
    with pytest.raises(IterationCapExceeded, match="ambiguous at order 8,"):
        discriminate_factor([good, good * bad * bad], system)


def test_reconstruction_succeeds_within_the_first_round():
    # the one reconstruction order 2D+1 = 11 pins down the factor
    g = load_fixture("catalan_cancellation.wcfg")
    report = decide_parikh(g)
    assert report.verdict == "holds"
    assert report.discrimination_order == 11


def test_a_cofactor_that_wins_discrimination_proves_fails(monkeypatch):
    monkeypatch.setattr("wcfg.decide.discriminate_factor", lambda candidates, system: 1)
    report = decide_parikh(load_fixture("catalan_cancellation.wcfg"))
    assert (report.verdict, report.discrimination_order, report.reason) == \
        ("fails", 11, "no linear factor at order 11")


def test_a_candidate_that_does_not_divide_proves_fails(monkeypatch):
    # random-3x2x7-073 of the decide-q benchmark corpus (seed 1): the
    # first candidate at order 2D+1 = 5 does not divide the certificate
    g = parse_grammar("""\
semiring Q
terminals a b
variables V1 V2 V3
start V1
rule V1 -> a b : 1
rule V2 -> b a : 3
rule V3 -> b : 1/2
rule V3 -> a : 1
rule V2 -> V3 a a : -2
rule V1 -> V1 V1 : -1
rule V3 -> V1 V1 V3 : -1/2
""")
    report = decide_parikh(g)
    assert report.reason == "no root mod 1013 at point 1000003"
    monkeypatch.setattr("wcfg.decide.no_root", lambda terms: None)
    forced = decide_parikh(g)
    assert render_report(forced) == render_report(report).replace(
        "discrimination_order: 0", "discrimination_order: 5")
    assert forced.reason == "no linear factor at order 5"


def test_discriminate_factor_rejects_a_candidate_over_other_symbols():
    system = algebraic_system(load_fixture("unary_double.wcfg"))
    good = linear_in_x(2)
    # the start variable X comes last, after exactly the terminals
    for syms in (("X", "a"), ("a", "Y")):
        with pytest.raises(SymbolMismatch, match="candidate over"):
            discriminate_factor([good, linear_in_x(1, syms)], system)
    with pytest.raises(SymbolMismatch, match="candidate over"):
        discriminate_factor([Polynomial.variable(("a",), "a")], system)


def test_two_univariate_basis_elements_raise(monkeypatch):
    system = algebraic_system(load_fixture("unary_double.wcfg"))
    univar = eliminate_to_univariate(system)
    square = clear_denominators(univar) * clear_denominators(univar)
    monkeypatch.setattr("wcfg.decide.groebner_basis", lambda gens: [univar, square.monic()])
    with pytest.raises(NoUnivariateElement, match="2 elements"):
        eliminate_to_univariate(system)


# Two documents of the decide-q benchmark corpus (seed 3) on which the
# squarefree part taken by Euclid's algorithm over Q(a, b) runs for
# minutes; the gcd in Q[a, b][V1] takes hundredths of a second.
SLOW_SQUAREFREE = {
    "random-3x2x7-036": ("""\
semiring Q
terminals a b
variables V1 V2 V3
start V1
rule V1 -> a b : -1
rule V2 -> a : 2
rule V3 -> b b : 3
rule V3 -> a V2 : 1
rule V3 -> b a : -2
rule V1 -> V3 V3 V1 : 3
rule V3 -> V1 b : 2
""", "12*b^2*V1^3 + (24*a^2*b - 24*a*b^2 + 36*b^3)*V1^2"
         " - (1 - 12*a^4 + 24*a^3*b - 48*a^2*b^2 + 36*a*b^3 - 27*b^4)*V1 - a*b",
        0, "fails", "no root mod 1013 at point 1000003"),
    "random-3x2x7-249": ("""\
semiring Q
terminals a b
variables V1 V2 V3
start V1
rule V1 -> a : 1
rule V2 -> b : -2
rule V3 -> a : 1
rule V2 -> V1 : 1
rule V1 -> V3 V1 V2 : 1
rule V3 -> V1 : 2
rule V3 -> a a : 1
""", "2*V1^3 + (a - 4*b + a^2)*V1^2 - (1 + 2*a*b + 2*a^2*b)*V1 + a",
        0, "fails", "no root mod 1009 at point 1000003"),
}


# Three more documents of that corpus.  On the first, an exact Fraction
# nullspace that comes back empty takes a third of a second; on the
# other two, the exact gcd of the certificate with its derivative runs
# for more than ten seconds.  The modular certificates decide each in
# about a tenth of a second.
MODULAR_CERTIFICATES = {
    "random-4x2x9-059": ('''\
semiring Q
terminals a b
variables V1 V2 V3 V4
start V1
rule V1 -> b : 1
rule V2 -> b : 1
rule V3 -> b : 2
rule V4 -> a : -1/2
rule V1 -> b b b : 3
rule V2 -> V2 V2 : 3
rule V4 -> b : 3/2
rule V1 -> a V2 : 1
rule V4 -> V3 V1 : -1
''', "3*V1^2 - (a + 6*b + 18*b^3)*V1"
         " + (a*b + 3*b^2 + a^2*b + 3*a*b^3 + 18*b^4 + 27*b^6)",
        0, "fails", "no root mod 1009 at point 2718281"),
    "random-3x2x7-001": ('''\
semiring Q
terminals a b
variables V1 V2 V3
start V1
rule V1 -> b b : 2
rule V2 -> a b : -1/2
rule V3 -> b a : 1/2
rule V3 -> b b V3 : 2
rule V2 -> V1 V1 : 1/2
rule V1 -> V2 V3 V3 : -1
rule V3 -> b V2 : 3
''', "9*b^2*V1^6 + (6*a*b^2 - 27*a*b^3)*V1^4 + (a^2*b^2 - 12*a^2*b^3 + 27*a^2*b^4)*V1^2"
         " + (8 - 32*b^2 + 32*b^4)*V1"
         " - (16*b^2 - 64*b^4 + a^3*b^3 + 64*b^6 - 6*a^3*b^4 + 9*a^3*b^5)",
        0, "fails", "no root mod 1009 at point 2718281"),
    "random-4x2x9-111": ('''\
semiring Q
terminals a b
variables V1 V2 V3 V4
start V1
rule V1 -> a b : 1
rule V2 -> a : 1
rule V3 -> a b : 2
rule V4 -> b b : 2
rule V4 -> b b V2 : 1/2
rule V2 -> V3 : -1
rule V2 -> V1 V4 : 1/2
rule V3 -> V2 b V4 : -1/2
rule V1 -> V3 b : -1
''', "b^4*V1^3 - (12*b^2 + 4*b^5 + a*b^5 - 2*a*b^6)*V1^2"
         " + (16 - 16*b^3 + 8*a*b^3 - 16*a*b^4 - 16*b^6)*V1 - (16*a*b - 32*a*b^2)",
        0, "fails", "no root mod 1009 at point 1000003"),
}
# Two documents of that corpus (seed 1) on which the Groebner basis
# computed over Q(a, b) ran past 90 s and 17 s, nearly all of it in the
# gcds that reduce each rational-function coefficient; computed over
# Q[a, b], fraction-free, each takes about a tenth of a second.
FRACTION_FREE_BASES = {
    "random-4x2x9-064": ('''\
semiring Q
terminals a b
variables V1 V2 V3 V4
start V1
rule V1 -> b b : -1
rule V2 -> a a : 3/2
rule V3 -> b b : 1
rule V4 -> b : -1
rule V1 -> b V2 a : 1
rule V1 -> V2 : 2
rule V3 -> V4 V2 : 1
rule V1 -> V2 a : 1
rule V2 -> V1 b V4 : -1/2
''', "(2 - 2*b^2 - a*b^2 - a*b^3)*V1 - (6*a^2 - 2*b^2 + 3*a^3 + 3*a^3*b)", 0,
        "holds", "linear certificate"),
    "random-4x2x9-249": ('''\
semiring Q
terminals a b
variables V1 V2 V3 V4
start V1
rule V1 -> b b : 1/2
rule V2 -> b a : -1/2
rule V3 -> b : 1
rule V4 -> b : -1
rule V4 -> V4 V1 : 3
rule V4 -> V3 a : -2
rule V1 -> V3 : 1
rule V1 -> a a : 2
rule V3 -> V4 V4 V3 : -1
''', "(18 + 8*a^2)*V1^3"
         " - (12 + 18*b + 36*a^2 - 8*a*b + 9*b^2 + 48*a^4 + 12*a^2*b^2)*V1^2"
         " + (2 + 12*b + 24*a^2 + 8*b^2 - 32*a^3*b - 8*a*b^3 + 96*a^6 + 48*a^4*b^2"
         " + 6*a^2*b^4)*V1"
         " - (2*b + 4*a^2 + b^2 + 4*a^2*b^2 + b^4 - 32*a^5*b - 16*a^3*b^3 - 2*a*b^5"
         " + 64*a^8 + 48*a^6*b^2 + 12*a^4*b^4 + a^2*b^6)",
        0, "fails", "no root mod 1009 at point 1000003"),
}

# Two documents of that corpus (seed 3) on which a gcd taken inside the
# Groebner basis ran for minutes as a primitive pseudo-remainder
# sequence, its Fraction coefficients swelling; the heuristic gcd takes
# about a second on the first and a hundredth of one on the second.
HEURISTIC_GCD = {
    "random-5x3x12-003": ('''\
semiring Q
terminals a b c
variables V1 V2 V3 V4 V5
start V1
rule V1 -> c c : 3
rule V2 -> a : 3/2
rule V3 -> b : -1/2
rule V4 -> b : 1
rule V5 -> c a : -2
rule V1 -> V4 V3 : 1/2
rule V3 -> V4 : 2
rule V4 -> V5 V1 : 2
rule V5 -> c V3 : 3
rule V2 -> c b : -1/2
rule V2 -> V5 : -2
rule V5 -> V5 V5 : 1
''', "9216*c^2*V1^5 - (1536*c + 1024*a^2*c^2 + 768*a*b*c^2 + 27648*c^4)*V1^4"
         " + (64 + 256*a*c - 1248*b*c + 448*a*b*c + 144*b^2*c + 4608*c^3)*V1^3"
         " - (16 - 56*b + 48*b^2 + 192*c^2 - 200*a*b^2*c + 768*a*c^3 - 54*b^3*c"
         " - 3744*b*c^3)*V1^2"
         " + (24*b^2 + 96*c^2 - 42*b^3 - 168*b*c^2)*V1 - (9*b^4 + 72*b^2*c^2 + 144*c^4)",
        0, "fails", "no root mod 1009 at point 2718281"),
    "random-4x2x9-266": ('''\
semiring Q
terminals a b
variables V1 V2 V3 V4
start V1
rule V1 -> b b : -1
rule V2 -> a : 1/2
rule V3 -> b : -2
rule V4 -> a b : 3/2
rule V1 -> a : 1
rule V4 -> V3 V2 V1 : 2
rule V2 -> V3 : 3/2
rule V1 -> a V2 V3 : 2
rule V3 -> b b V2 : -2
''', "(1 + 6*b^2 + 9*b^4)*V1"
         " - (a - b^2 - 2*a^2*b + 18*a*b^2 - 6*b^4 - a^3*b^2 + 6*a^2*b^3 + 9*a*b^4 - 9*b^6)", 0,
        "holds", "linear certificate"),
}
PINNED_DOCUMENTS = {**SLOW_SQUAREFREE, **MODULAR_CERTIFICATES, **FRACTION_FREE_BASES,
                    **HEURISTIC_GCD}


def check_pinned_document(text, q, order, verdict, reason):
    g = parse_grammar(text)
    report = decide_parikh(g)
    assert (report.verdict, render_system_polynomial(report.q),
            report.discrimination_order) == (verdict, q, order)
    assert report.reason == reason
    coeffs = coefficients_in_last(univar_polynomial(report.q))
    assert eval_poly_at_series(coeffs, parikh_series_bruteforce(g, 5), 5).is_zero()


@pytest.mark.parametrize("name", sorted(SLOW_SQUAREFREE))
def test_slow_squarefree_documents(name):
    with deadline(3):
        check_pinned_document(*SLOW_SQUAREFREE[name])


@pytest.mark.parametrize("name", sorted(MODULAR_CERTIFICATES))
def test_modular_certificate_documents(name):
    with deadline(3):
        check_pinned_document(*MODULAR_CERTIFICATES[name])


@pytest.mark.parametrize("name", sorted(FRACTION_FREE_BASES))
def test_fraction_free_basis_documents(name):
    with deadline(3):
        check_pinned_document(*FRACTION_FREE_BASES[name])


def no_pseudo_remainder_sequence(monkeypatch):
    """Make the gcd's fallback fail, so that every gcd is the heuristic's."""
    def fallback(p, q):
        raise AssertionError("the heuristic gcd gave up")

    monkeypatch.setattr(importlib.import_module("wcfg.polynomials"), "_gcd_prs", fallback)


SHIPPED_Q_DOCUMENTS = sorted(path.name for path in GRAMMARS_DIR.glob("*.wcfg")
                             if load_grammar(path).semiring.keyword == "Q")


@pytest.mark.parametrize("name", SHIPPED_Q_DOCUMENTS)
def test_the_heuristic_gcd_decides_the_shipped_documents(name, monkeypatch):
    expected = render_report(decide_parikh(load_fixture(name)))
    no_pseudo_remainder_sequence(monkeypatch)
    assert render_report(decide_parikh(load_fixture(name))) == expected


@pytest.mark.parametrize("name", sorted(PINNED_DOCUMENTS))
def test_the_heuristic_gcd_decides_the_pinned_documents(name, monkeypatch):
    no_pseudo_remainder_sequence(monkeypatch)
    with deadline(20):
        check_pinned_document(*PINNED_DOCUMENTS[name])


def certificate(g):
    """The squarefree cleared certificate decide_parikh starts from."""
    return clear_denominators(univar_gcd_squarefree(
        eliminate_to_univariate(algebraic_system(g))))


# Documents of that corpus on which the no-root proof once found a root
# at every try, so that the series decided them.  On the first, the
# discriminant 9*(1 + 4*b^2 - 4*a^2) of the certificate is the square
# 9*(2*t^2 - 1)^2 at every point (t, t^2); the points (t, t^3) lie off
# that curve.
OFF_CURVE_CERTIFICATES = {
    "random-3x2x7-106": ("""\
semiring Q
terminals a b
variables V1 V2 V3
start V1
rule V1 -> b : 1
rule V2 -> b a : -2
rule V3 -> a a : -1
rule V1 -> V3 : 3
rule V3 -> V3 V3 : -1
rule V3 -> b b : 1
rule V2 -> V1 b : -1/2
""", "V1^2 + (3 - 2*b)*V1 - (3*b - 9*a^2 + 8*b^2)", 0, "fails",
        "no root mod 1009 at point 2718281"),
    "random-4x2x9-113": ("""\
semiring Q
terminals a b
variables V1 V2 V3 V4
start V1
rule V1 -> a : 1
rule V2 -> b : 1
rule V3 -> a a : -2
rule V4 -> b : 1
rule V4 -> V3 V3 : 1/2
rule V1 -> a V2 : 1
rule V2 -> b V4 V1 : -1
rule V3 -> V4 : 2
rule V4 -> V3 a : -1/2
""", "(2 + a*b + a^2*b + 4*a^3*b + a^2*b^3 + a^5*b^2 + 2*a^6*b^2)*V1^2"
         " - (4*a + 4*a*b + a^2*b + a^3*b + a^2*b^2 + 4*a^4*b + a^3*b^2 + 4*a^4*b^2)*V1"
         " + (2*a^2 + 4*a^2*b + 2*a^2*b^2)",
        0, "fails", "no root mod 1009 at point 1000003"),
    "random-3x2x7-156": ("""\
semiring Q
terminals a b
variables V1 V2 V3
start V1
rule V1 -> b : 2
rule V2 -> a : 1
rule V3 -> a b : 1/2
rule V1 -> V3 b V1 : 1
rule V1 -> a a : -2
rule V2 -> V3 : 2
rule V3 -> b V1 : 3/2
""", "3*b^2*V1^2 - (2 - a*b^2)*V1 + (4*b - 4*a^2)", 0, "fails",
        "no root mod 1009 at point 1000003"),
}


@pytest.mark.parametrize("name", sorted(OFF_CURVE_CERTIFICATES))
def test_off_curve_points_prove_the_documents_that_escaped(name, monkeypatch):
    def no_series(*args):
        raise AssertionError("series approximated")

    monkeypatch.setattr("wcfg.decide.approximate", no_series)
    check_pinned_document(*OFF_CURVE_CERTIFICATES[name])


SYMS = ("a", "X")
A = Polynomial.variable(SYMS, "a")
X = Polynomial.variable(SYMS, "X")
ONE = Polynomial.const(SYMS, 1)


def image_mod(poly, p, base):
    """Ascending coefficients in X, the last symbol of poly, with the
    i-th other symbol set to base^(2i + 1) in GF(p)."""
    coeffs = [0] * (max(m[-1] for m in poly.terms) + 1)
    for m, c in poly.terms.items():
        value = c.numerator * pow(c.denominator, -1, p)
        for i, e in enumerate(m[:-1]):
            value *= pow(base, (2 * i + 1) * e, p)
        coeffs[m[-1]] += value
    return [c % p for c in coeffs]


def check_no_root(poly, reason):
    """no_root proves poly with `reason`, and the image it names has a
    lead that survives and no root, by trying every element."""
    assert no_root(poly.terms) == reason
    p, base = (int(word) for word in reason.split()[3::3])
    coeffs = image_mod(poly, p, base)
    assert coeffs[-1]
    assert all(sum(c * x ** j for j, c in enumerate(coeffs)) % p for x in range(p))


def test_no_root_proves_an_irreducible_quadratic():
    # 11 is the least prime that is not a square modulo 1009
    check_no_root(X * X - A.scale(11), "no root mod 1009 at point 1000003")


def test_no_root_proves_a_certificate_off_the_curve():
    # the certificate of random-3x2x7-106: its discriminant
    # 9*(1 + 4*b^2 - 4*a^2) is a square at every point (t, t^2), but not
    # at the point (t, t^3) that the proof takes
    syms = ("a", "b", "X")
    a, b, x = (Polynomial.variable(syms, s) for s in syms)
    three = Polynomial.const(syms, 3)
    poly = x * x + (three - b.scale(2)) * x - (b.scale(3) - (a * a).scale(9) + (b * b).scale(8))
    check_no_root(poly, "no root mod 1009 at point 2718281")


def test_no_root_skips_a_prime_or_a_point():
    # the lead 1009 vanishes modulo 1009, so that prime proves nothing
    check_no_root(X * X.scale(1009) - A.scale(11), "no root mod 1013 at point 2718281")
    # 1009 divides a denominator: that prime is skipped, although the
    # image without that term would have no root
    check_no_root(X * X + X.scale(Fraction(1, 1009)) - A.scale(11),
                  "no root mod 1013 at point 1000003")
    # the lead a - 1000003 vanishes at the first point of every prime
    lead = A - ONE.scale(POINT_BASES[0])
    check_no_root(lead * X * X - A.scale(11), "no root mod 1009 at point 2718281")


def test_no_root_falls_through_without_a_rational_root():
    # one of 2, 3 and 6 is a square modulo every odd prime, so this
    # product has a root at every try, but no linear factor over Q
    product = (X * X - ONE.scale(2)) * (X * X - ONE.scale(3)) * (X * X - ONE.scale(6))
    assert no_root(product.terms) is None


@pytest.mark.parametrize("name", SHIPPED_Q_DOCUMENTS)
def test_no_root_never_fires_on_a_holding_document(name):
    g = load_fixture(name)
    if decide_parikh(g).verdict == "holds":
        assert no_root(univar_polynomial(certificate(g)).terms) is None


def test_the_catalan_verdict_needs_no_series(monkeypatch):
    def no_series(*args):
        raise AssertionError("series approximated")

    monkeypatch.setattr("wcfg.decide.approximate", no_series)
    report = decide_parikh(load_fixture("catalan.wcfg"))
    assert (report.verdict, report.discrimination_order) == ("fails", 0)


CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"


def load_corpus():
    spec = importlib.util.spec_from_file_location("bench_corpus", CORPUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(3, 2, 7), (4, 2, 9)]))
@example(seed=171741, shape=(4, 2, 9))  # reconstructs at order 31, D = 15
@settings(max_examples=15, deadline=None)
def test_the_no_root_proof_agrees_with_the_reconstruction(seed, shape):
    # the benchmark's generator, since the nonexpansive grammars of
    # grammar_gen always hold; the first failing document of the seed
    corpus, rng = load_corpus(), random.Random(seed)
    while True:
        g = parse_grammar(corpus.random_document(rng, rng, "Q", *shape))
        if is_cycle_free(g)[0]:
            with deadline(20):
                report = decide_parikh(g)
            if report.verdict == "fails":
                break
    with pytest.MonkeyPatch.context() as patch, deadline(20):
        patch.setattr("wcfg.decide.no_root", lambda terms: None)
        reconstructed = decide_parikh(g)
    assert (reconstructed.verdict, render_system_polynomial(reconstructed.q)) == \
        ("fails", render_system_polynomial(report.q))
    coeffs = coefficients_in_last(univar_polynomial(certificate(g)))
    assert reconstructed.discrimination_order == 2 * max(c.total_degree() for c in coeffs) + 1
