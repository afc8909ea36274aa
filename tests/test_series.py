from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wcfg import (
    DegenerateLeadingTerm,
    NotCycleFree,
    Polynomial,
    TruncatedSeries,
    algebraic_system,
    grammar_from_linear,
    grammar_series,
    is_cycle_free,
    parikh_series_bruteforce,
    parse_grammar,
    render_series,
)
from wcfg.analysis import nullable_variables
from wcfg.errors import SymbolMismatch
from wcfg.grammar import Grammar
from wcfg.semirings import NATURALS, RATIONALS, TROPICAL
from wcfg.series import (
    AlgebraicSystem,
    _scalar_fixpoint,
    approximate,
    eval_poly_at_series,
    poly_to_series,
)

from fixtures import load_fixture
from grammar_gen import random_nonexpansive_family

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
    assert (f * f).coeffs == {(0,): Fraction(1), (1,): Fraction(2), (2,): Fraction(1)}


def test_series_multiplication_truncates():
    f = S(2, {(2,): Fraction(1)})
    assert (f * f).is_zero()


def test_series_arithmetic_keeps_the_lower_order():
    high = S(4, {(0,): Fraction(1), (1,): Fraction(1), (3,): Fraction(5)})
    low = S(2, {(0,): Fraction(1), (1,): Fraction(2)})
    assert high * low == low * high
    assert (high * low).order == 2
    assert (high * low).coeffs == {(0,): 1, (1,): 3, (2,): 2}
    assert high + low == low + high
    assert (high + low).coeffs == {(0,): 2, (1,): 3}


def test_series_over_other_symbols_or_semirings_do_not_mix():
    a = S(3, {(1,): Fraction(1)})
    b = S(3, {(1,): Fraction(1)}, syms=("b",))
    with pytest.raises(SymbolMismatch):
        a + b
    with pytest.raises(SymbolMismatch):
        a * b
    natural = S(3, {(1,): 1}, semiring=NATURALS)
    with pytest.raises(SymbolMismatch):
        a + natural


def test_render_series_ascending():
    s = S(4, {(3,): Fraction(2), (0,): Fraction(1), (1,): Fraction(-1, 2)})
    assert render_series(s) == "1 + -1/2*a + 2*a^3"
    assert render_series(S(4, {})) == "0"


def ratio_series(d, c, order):
    """The series of d/c through the order, by the witness grammar of
    c*X = d."""
    return grammar_series(grammar_from_linear(c, d, c.syms, "X"), order)


def test_geometric_series_expansion():
    syms = ("a",)
    one = Polynomial.const(syms, 1)
    a = Polynomial.variable(syms, "a")
    s = ratio_series(one, one - a.scale(2), 3)
    assert s.coeffs == {(0,): 1, (1,): 2, (2,): 4, (3,): 8}


def test_two_letter_geometric_expansion():
    syms = ("a", "abar")
    one = Polynomial.const(syms, 1)
    a = Polynomial.variable(syms, "a")
    abar = Polynomial.variable(syms, "abar")
    s = ratio_series(one, one - a - abar, 2)
    assert s.coeffs == {
        (0, 0): 1,
        (1, 0): 1, (0, 1): 1,
        (2, 0): 1, (1, 1): 2, (0, 2): 1,
    }


def test_series_expansion_needs_unit_denominator():
    syms = ("a",)
    one = Polynomial.const(syms, 1)
    a = Polynomial.variable(syms, "a")
    with pytest.raises(DegenerateLeadingTerm):
        ratio_series(one, a, 4)


def test_expand_matches_product_of_expansions():
    syms = ("a", "b")
    one = Polynomial.const(syms, 1)
    a = Polynomial.variable(syms, "a")
    b = Polynomial.variable(syms, "b")
    fg = ratio_series(one - b, (one - a) * (one - a - b), 5)
    assert fg == ratio_series(one, one - a, 5) * ratio_series(one - b, one - a - b, 5)


_poly_ab = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-3, 3).map(Fraction), max_size=4,
).map(lambda terms: Polynomial(("a", "b"), terms))


@given(c=_poly_ab, c0=st.sampled_from([-2, -1, 1, 3]), d=_poly_ab)
@settings(max_examples=60, deadline=None)
def test_the_witness_series_solves_its_equation(c, c0, d):
    # r = d/c as the witness grammar's series: c*r = d through the order
    c = c + Polynomial.const(c.syms, c0 - c.constant_term())
    r = ratio_series(d, c, 6)
    assert poly_to_series(c, 6) * r == poly_to_series(d, 6)


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


@pytest.mark.parametrize("text", [
    # a tropical cycle of weight 0, whose Kleene limit would exist
    "semiring tropical\nterminals a\nvariables X\nstart X\n"
    "rule X -> X : 0\nrule X -> a : 1\n",
    "semiring Q\nterminals a\nvariables X\nstart X\n"
    "rule X -> X : 1/2\nrule X -> a : 1\n",
    # diverges at degree 0: the constant term counts 1, 2, 3, ...
    "semiring Q\nterminals a\nvariables X\nstart X\n"
    "rule X -> X : 1\nrule X -> eps : 1\n",
], ids=["tropical-weight-0-loop", "loop", "constant-term-diverges"])
def test_approximate_rejects_cyclic_systems(text):
    with pytest.raises(NotCycleFree) as raised:
        approximate(algebraic_system(parse_grammar(text)), 3)
    assert raised.value.cycle == ("X",)


TWO_CYCLE = "semiring Q\nterminals a\nvariables X Y\nstart X\nrule X -> Y : 1\nrule Y -> X : 1\n"


@pytest.mark.parametrize("rules", [
    # constant terms 0: the sweep cannot place X or Y at degree 1
    "rule X -> a : 1\n",
    # constant terms 1, 2, 3, ...: still changing at pass |V| + 1
    "rule X -> eps : 1\nrule Y -> eps : 1\n",
], ids=["sweep", "constant-terms"])
def test_a_cycle_found_by_the_series_renders_its_variables_as_a_set(rules):
    with pytest.raises(NotCycleFree) as raised:
        approximate(algebraic_system(parse_grammar(TWO_CYCLE + rules)), 3)
    assert str(raised.value) == "grammar is not cycle-free: variables on or behind a cycle: X, Y"
    assert raised.value.cycle == ("X", "Y")


def test_a_cycle_found_by_is_cycle_free_renders_as_a_path():
    _, cycle = is_cycle_free(parse_grammar(TWO_CYCLE + "rule X -> a : 1\n"))
    assert str(NotCycleFree(cycle.variables)) == "grammar is not cycle-free: X -> Y -> X"


def test_a_unit_chain_needs_every_scalar_pass():
    # X1 -> X2 -> ... -> X6 -> eps: the empty-yield tree has height 6 =
    # |V|, so the degree-0 iteration repeats itself only at pass |V| + 1
    n = 6
    rules = "".join(f"rule X{i} -> X{i + 1} : 1\n" for i in range(1, n))
    variables = " ".join(f"X{i}" for i in range(1, n + 1))
    g = parse_grammar(f"semiring Q\nterminals a\nvariables {variables}\nstart X1\n"
                      f"{rules}rule X{n} -> eps : 1\n")
    assert grammar_series(g, 3) == S(3, {(0,): Fraction(1)})

    class CountedPasses(list):
        passes = 0

        def __iter__(self):
            self.passes += 1
            return super().__iter__()

    equations = CountedPasses([[(Fraction(1), (0,), [i + 1])] for i in range(n - 1)])
    equations.append([(Fraction(1), (0,), [])])
    assert _scalar_fixpoint(RATIONALS, equations, g.variables) == [1] * n
    assert equations.passes == n + 1  # so a cap of |V| passes would fail it


# hand-made cycle-free shapes for the same-degree order of the sweep:
# products of nullable variables, a product with one factor vanishing at
# the origin (V) and one with two (W W), shared prefixes, an
# epsilon-chain three levels deep, and a product A*B*V whose degree-n
# slice must not wait for the prefix A*B, since V vanishes at the origin
SWEEP_SHAPES = (
    "terminals a b\nvariables X Y Z V W\nstart X\n"
    "rule X -> Y Z : 2\nrule X -> Y Z V : 1\nrule X -> W W : 1\n"
    "rule X -> Y V : 3\nrule X -> a : 1\n"
    "rule Y -> eps : 1\nrule Y -> b Y : 1\n"
    "rule Z -> eps : 3\nrule Z -> Y a : 1\n"
    "rule V -> a : 2\nrule V -> V b : 1\n"
    "rule W -> b : 1\nrule W -> a W : 2\n",
    "terminals a b c\nvariables X A B C\nstart X\n"
    "rule X -> A B C : 1\nrule X -> A B : 2\nrule X -> B a X : 1\n"
    "rule A -> B C : 1\nrule A -> a : 1\n"
    "rule B -> C : 2\nrule B -> b : 1\n"
    "rule C -> eps : 1\nrule C -> c C : 1\n",
    "terminals a b\nvariables X A B V\nstart X\n"
    "rule X -> A B V : 1\nrule X -> a : 1\n"
    "rule A -> eps : 1\nrule A -> a A : 1\n"
    "rule B -> eps : 2\nrule B -> b : 1\n"
    "rule V -> b : 1\nrule V -> V a : 1\n",
)


def sweep_grammars():
    """Every shape in every semiring, a rational one whose nullable Y has
    a constant term cancelling to zero, and seeded random grammars."""
    out = []
    for shape in SWEEP_SHAPES:
        for keyword in ("Q", "N", "tropical"):
            out.append(parse_grammar(f"semiring {keyword}\n" + shape))
    out.append(parse_grammar(
        "semiring Q\nterminals a b\nvariables X Y U V\nstart X\n"
        "rule X -> Y V : 1\nrule X -> a : 1\n"
        "rule Y -> eps : 1\nrule Y -> U : -1\nrule Y -> a Y : 1\n"
        "rule U -> eps : 1\nrule V -> b : 1\nrule V -> eps : 2\n"))
    for family in random_nonexpansive_family(7, 40):
        out.extend(family[keyword] for keyword in ("Q", "N", "tropical"))
    return out


def test_sweep_grammars_cover_epsilon_rules_and_nullable_products():
    grammars = sweep_grammars()
    with_eps = [g for g in grammars if any(not r.rhs for r in g.rules)]
    nullable_products = [
        g for g in grammars
        if any(sum(s in nullable_variables(g) for s in r.rhs) >= 2 for r in g.rules)
    ]
    assert len(with_eps) >= 50 and len(nullable_products) >= 10


def test_approximate_matches_tree_enumeration():
    for g in sweep_grammars():
        system = algebraic_system(g)
        for i, var in enumerate(system.variables):
            brute = parikh_series_bruteforce(
                Grammar(g.semiring, g.terminals, g.variables, var, g.rules), 7)
            for order in range(8):
                got = approximate(algebraic_system(g), order)[i]
                want = TruncatedSeries(brute.semiring, brute.syms, order, brute.coeffs)
                assert got == want, (render_series(got), var, order)


def test_a_reused_system_answers_like_a_fresh_one():
    grammars = [load_fixture(name) for name in (
        "catalan.wcfg", "two_letter_star_cfl.wcfg", "tropical_paths.wcfg",
        "binary_tail.wcfg")]
    grammars += sweep_grammars()[:12]
    for g in grammars:
        system = algebraic_system(g)
        for order in (9, 4, 12):
            assert approximate(system, order) == \
                approximate(algebraic_system(g), order), order


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
