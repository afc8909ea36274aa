from fractions import Fraction

import pytest

from wcfg import (
    DegenerateLeadingTerm,
    NonConvergent,
    NonUnitDenominatorAtOrigin,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    algebraic_system,
    grammar_from_linear,
    grammar_series,
    parse_grammar,
    render_series,
    series_expand,
)
from wcfg.errors import NonRegularSystem
from wcfg.semirings import RATIONALS, TROPICAL
from wcfg.series import (
    AlgebraicSystem,
    approximate,
    eval_poly_at_series,
    poly_to_series,
    regular_system_to_grammar,
)

from fixtures import load_fixture

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def S(order, coeffs, semiring=RATIONALS, syms=("a",)):
    return TruncatedSeries(semiring, syms, order, coeffs)


def test_series_equality_strips_zero_coefficients():
    assert S(3, {(1,): Fraction(0)}) == S(3, {})
    assert S(3, {(1,): Fraction(1)}) != S(3, {})


def test_series_arithmetic():
    f = S(4, {(0,): Fraction(1), (1,): Fraction(1)})       # 1 + a
    g = S(4, {(1,): Fraction(2)})                          # 2a
    assert (f + g).coefficient((1,)) == 3
    assert (f * g).coeffs == {(1,): Fraction(2), (2,): Fraction(2)}
    assert (f ** 2).coeffs == {(0,): Fraction(1), (1,): Fraction(2), (2,): Fraction(1)}


def test_series_multiplication_truncates():
    f = S(2, {(2,): Fraction(1)})
    assert (f * f).is_zero()
    assert f.truncated(1).is_zero()


def test_render_series_ascending():
    s = S(4, {(3,): Fraction(2), (0,): Fraction(1), (1,): Fraction(-1, 2)})
    assert render_series(s) == "1 + -1/2*a + 2*a^3"
    assert render_series(S(4, {})) == "0"


def test_geometric_series_expansion():
    syms = ("a",)
    one = Polynomial.const(syms, 1)
    a = Polynomial.variable(syms, "a")
    f = RationalFunction(one, one - a.scale(2))
    s = series_expand(f, 3)
    assert s.coeffs == {(0,): 1, (1,): 2, (2,): 4, (3,): 8}


def test_two_letter_geometric_expansion():
    syms = ("a", "abar")
    one = Polynomial.const(syms, 1)
    a = Polynomial.variable(syms, "a")
    abar = Polynomial.variable(syms, "abar")
    f = RationalFunction(one, one - a - abar)
    s = series_expand(f, 2)
    assert s.coeffs == {
        (0, 0): 1,
        (1, 0): 1, (0, 1): 1,
        (2, 0): 1, (1, 1): 2, (0, 2): 1,
    }


def test_series_expansion_needs_unit_denominator():
    syms = ("a",)
    one = Polynomial.const(syms, 1)
    a = Polynomial.variable(syms, "a")
    with pytest.raises(NonUnitDenominatorAtOrigin):
        series_expand(RationalFunction(one, a), 4)


def test_expand_matches_product_of_expansions():
    syms = ("a", "b")
    one = Polynomial.const(syms, 1)
    a = Polynomial.variable(syms, "a")
    b = Polynomial.variable(syms, "b")
    f = RationalFunction(one, one - a)
    g = RationalFunction(one - b, one - a - b)
    assert series_expand(f * g, 5) == series_expand(f, 5) * series_expand(g, 5)


def test_eval_poly_at_series():
    syms = ("a",)
    a = Polynomial.variable(syms, "a")
    one = Polynomial.const(syms, 1)
    s = poly_to_series(a, 4)
    # evaluate 1 + a*X + X^2 at X = a
    out = eval_poly_at_series([one, a, one], s, 4)
    assert out.coeffs == {(0,): 1, (2,): 2}


def test_algebraic_system_shape():
    g = load_fixture("binary_tail.wcfg")
    system = algebraic_system(g)
    assert system.variables[0] == g.start
    assert len(system.equations) == len(system.variables)
    # X1's equation has one term: weight 1, letter a, children X2*X2
    (terms,) = system.equations[:1]
    assert terms == ((Fraction(1), (1, 0), (0, 2)),)


def test_approximate_reaches_the_fixed_point():
    g = load_fixture("binary_tail.wcfg")
    series = approximate(algebraic_system(g), 6)
    assert series[0] == grammar_series(g, 6)
    # the non-start component is the geometric series a * b^*
    assert series[1].coeffs == {(1, n): Fraction(1) for n in range(6)}


def test_catalan_series_coefficients():
    g = load_fixture("catalan.wcfg")
    s = grammar_series(g, 15)
    for n, c in enumerate(CATALAN):
        assert s.coefficient((2 * n + 1,)) == c


def test_tropical_series_takes_minima():
    from wcfg import parikh_series_bruteforce

    g = load_fixture("tropical_paths.wcfg")
    s = grammar_series(g, 4)
    assert s == parikh_series_bruteforce(g, 4)
    assert all(w != TROPICAL.zero for w in s.coeffs.values())


def test_approximate_diverges_on_cycles():
    g = parse_grammar(
        "semiring Q\nterminals a\nvariables X\nstart X\n"
        "rule X -> X : 1/2\nrule X -> a : 1\n"
    )
    with pytest.raises(NonConvergent):
        approximate(algebraic_system(g), 3, max_iters=50)


def test_regular_system_round_trip():
    g = load_fixture("two_letter_star.wcfg")
    rebuilt = regular_system_to_grammar(algebraic_system(g))
    # rule order follows the equation canon, so compare as sets
    assert set(rebuilt.rules) == set(g.rules)
    assert (rebuilt.semiring, rebuilt.terminals, rebuilt.start) == (
        g.semiring, g.terminals, g.start)
    assert grammar_series(rebuilt, 5) == grammar_series(g, 5)


def test_regular_system_rejects_nonlinear_terms():
    g = load_fixture("binary_tail.wcfg")
    with pytest.raises(NonRegularSystem):
        regular_system_to_grammar(algebraic_system(g))


def test_grammar_from_linear_builds_the_solving_grammar():
    syms = ("a",)
    one = Polynomial.const(syms, 1)
    a = Polynomial.variable(syms, "a")
    # (1 - 2a) X = 1  =>  X -> eps : 1 | a X : 2
    g = grammar_from_linear(one - a.scale(2), one, syms, "X")
    assert [(r.rhs, r.weight) for r in g.rules] == [((), 1), (("a", "X"), 2)]
    assert grammar_series(g, 5).coeffs == {(n,): Fraction(2) ** n for n in range(6)}


def test_grammar_from_linear_rescales_by_the_constant_term():
    syms = ("a",)
    a = Polynomial.variable(syms, "a")
    two = Polynomial.const(syms, 2)
    # (2 - a) X = 2a  =>  X = (a/2) X + a, terminal-only rules first
    g = grammar_from_linear(two - a, two * a, syms, "X")
    assert [(r.rhs, r.weight) for r in g.rules] == [
        (("a",), Fraction(1)),
        (("a", "X"), Fraction(1, 2)),
    ]


def test_grammar_from_linear_degenerate_leading_coefficient():
    syms = ("a",)
    a = Polynomial.variable(syms, "a")
    with pytest.raises(DegenerateLeadingTerm):
        grammar_from_linear(a, a, syms, "X")


def test_grammar_from_linear_zero_solution():
    syms = ("a",)
    one = Polynomial.const(syms, 1)
    zero = Polynomial.zero(syms)
    g = grammar_from_linear(one, zero, syms, "X")
    assert grammar_series(g, 4).is_zero()
