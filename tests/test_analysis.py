import pytest

from wcfg import (
    ExpansiveGrammar,
    degree,
    dimension_bound,
    is_cycle_free,
    is_nonexpansive,
    parse_grammar,
    replay_derivation,
)
from wcfg.analysis import nullable_variables

from fixtures import load_fixture


def doc(rules, variables="X Y Z", terminals="a b", start=None, semiring="Q"):
    names = variables.split()
    start = start or names[0]
    lines = [f"semiring {semiring}", f"terminals {terminals}",
             f"variables {variables}", f"start {start}"]
    lines += [f"rule {r}" for r in rules]
    return parse_grammar("\n".join(lines) + "\n")


def test_nullable_variables():
    g = doc(["X -> Y Z : 1", "Y -> eps : 1", "Y -> a : 1",
             "Z -> a : 1", "Z -> Y Y : 1"])
    assert nullable_variables(g) == {"X", "Y", "Z"}
    h = doc(["X -> a Y : 1", "Y -> eps : 1", "Z -> a : 1"])
    assert nullable_variables(h) == {"Y"}


def test_cycle_free_fixtures():
    for name in ("catalan.wcfg", "binary_tail.wcfg", "two_letter_star_cfl.wcfg",
                 "unary_double.wcfg", "exponential_ambiguity.wcfg"):
        ok, witness = is_cycle_free(load_fixture(name))
        assert ok and witness is None, name


def test_direct_unit_cycle_is_found():
    g = doc(["X -> Y : 1", "Y -> X : 1", "Y -> a : 1"], variables="X Y")
    ok, witness = is_cycle_free(g)
    assert not ok
    assert witness.variables[0] == witness.variables[-1]
    assert len(witness.variables) >= 2


def test_cycle_through_nullable_siblings():
    # X -> Y X is a cycle only because Y can vanish
    g = doc(["X -> Y X : 1", "X -> a : 1", "Y -> eps : 1"], variables="X Y")
    ok, witness = is_cycle_free(g)
    assert not ok
    assert "X" in witness.variables


def test_cycle_witness_replays():
    g = doc(["X -> Y : 1", "Y -> Z : 1", "Z -> X : 1", "Z -> a : 1"])
    ok, witness = is_cycle_free(g)
    assert not ok
    forms = replay_derivation(g, witness.derivation)
    assert forms[0] == (witness.variables[0],)
    assert forms[-1] == (witness.variables[-1],)


def test_nonexpansive_fixtures():
    for name in ("binary_tail.wcfg", "two_letter_star.wcfg",
                 "exponential_ambiguity.wcfg", "tropical_paths.wcfg"):
        ok, witness = is_nonexpansive(load_fixture(name))
        assert ok and witness is None, name


def test_expansive_fixture_witnesses():
    # unary_double and two_letter_star_cfl are expansive on purpose: their
    # D variable derives two copies of itself, yet each still has a
    # regular letter-count series.
    for name, var in (("catalan.wcfg", "X"),
                      ("two_letter_star_cfl.wcfg", "D"),
                      ("unary_double.wcfg", "D"),
                      ("catalan_cancellation.wcfg", None)):
        g = load_fixture(name)
        ok, witness = is_nonexpansive(g)
        assert not ok
        if var is not None:
            assert witness.variable == var
        i, j = witness.positions
        assert 0 <= i < j < len(g.rules[witness.rule].rhs)


def test_expansive_witness_derivation_duplicates_the_variable():
    # D is duplicated only after going through an intermediate variable
    g = doc(["X -> Y Y : 1", "Y -> a X : 1", "Y -> a : 1"], variables="X Y")
    ok, witness = is_nonexpansive(g)
    assert not ok
    forms = replay_derivation(g, witness.derivation)
    assert forms[0] == (witness.variable,)
    assert forms[-1].count(witness.variable) >= 2


def test_degree_is_max_rhs_variable_occurrences_minus_one():
    assert degree(load_fixture("binary_tail.wcfg")) == 1
    assert degree(load_fixture("two_letter_star.wcfg")) == 0
    assert degree(load_fixture("unary_double.wcfg")) == 1  # D -> a D a D
    assert degree(doc(["X -> Y Y Z : 1", "Y -> a : 1", "Z -> a : 1"])) == 2


def test_dimension_bound_values():
    assert dimension_bound(load_fixture("binary_tail.wcfg")) == 1
    assert dimension_bound(load_fixture("two_letter_star.wcfg")) == 0
    # chaining two-variable rules raises the bound by one per level
    g = doc(["X -> Y Y : 1", "Y -> Z Z : 1", "Z -> a : 1"])
    assert dimension_bound(g) == 2


def test_dimension_bound_raises_on_expansive_input():
    for name in ("catalan.wcfg", "unary_double.wcfg", "two_letter_star_cfl.wcfg"):
        with pytest.raises(ExpansiveGrammar) as err:
            dimension_bound(load_fixture(name))
        assert err.value.witness is not None


# Golden witnesses on grammars that offer ties: equal-length cycles from
# one origin, and several rules able to duplicate a variable.  The exact
# variables and derivation steps pin the search order.

def test_cycle_witness_golden_equal_length_unit_cycles():
    g = doc(["X -> Y : 1", "X -> Z : 1", "Y -> X : 1", "Z -> X : 1",
             "Y -> a : 1", "Z -> a : 1"])
    ok, witness = is_cycle_free(g)
    assert not ok
    assert witness.variables == ("X", "Y", "X")
    assert witness.derivation.start == ("X",)
    assert witness.derivation.steps == ((0, 0), (0, 2))


def test_cycle_witness_golden_nullable_siblings():
    g = doc(["X -> Y Z : 1", "X -> Z Y : 1", "Y -> X : 1", "Y -> a : 1",
             "Z -> eps : 1", "Z -> b : 1"])
    ok, witness = is_cycle_free(g)
    assert not ok
    assert witness.variables == ("X", "Y", "X")
    assert witness.derivation.start == ("X",)
    assert witness.derivation.steps == ((0, 0), (1, 4), (0, 2))


def test_cycle_witness_golden_prefers_a_shorter_later_cycle():
    g = doc(["X -> Y : 1", "Y -> X : 1", "Y -> a : 1", "Z -> Z W : 1",
             "Z -> b : 1", "W -> eps : 1", "W -> W W : 1"], variables="X Y Z W")
    ok, witness = is_cycle_free(g)
    assert not ok
    assert witness.variables == ("Z", "Z")
    assert witness.derivation.start == ("Z",)
    assert witness.derivation.steps == ((0, 3), (1, 5))


def _expansive_golden(g):
    ok, witness = is_nonexpansive(g)
    assert not ok
    return (witness.variable, witness.rule, witness.positions,
            witness.derivation.start, witness.derivation.steps)


def test_expansive_witness_golden_duplicating_rule_of_the_variable():
    g = doc(["X -> Y Y : 1", "X -> a : 1", "Y -> a X : 1", "Y -> b X : 1",
             "Y -> a : 1"], variables="X Y")
    assert _expansive_golden(g) == (
        "X", 0, (0, 1), ("X",), ((0, 0), (0, 2), (2, 2)))


def test_expansive_witness_golden_two_duplicating_rules_behind_a_path():
    g = doc(["S -> a A : 1", "A -> b B : 1", "A -> c B : 1", "B -> S S : 1",
             "B -> S a S : 1", "B -> a : 1"], variables="S A B",
            terminals="a b c")
    assert _expansive_golden(g) == (
        "S", 3, (0, 1), ("S",), ((0, 0), (1, 1), (2, 3)))


def test_expansive_witness_golden_paths_back_from_both_copies():
    g = doc(["S -> a A : 1", "S -> b : 1", "A -> B c B : 1", "A -> c B B : 1",
             "B -> a S : 1", "B -> b A : 1"], variables="S A B",
            terminals="a b c")
    assert _expansive_golden(g) == (
        "S", 2, (0, 2), ("S",), ((0, 0), (1, 2), (1, 4), (4, 4)))
