from fractions import Fraction

import pytest

from wcfg import (
    EnumerationBudgetExceeded,
    NotCycleFree,
    derivation_index,
    enumerate_trees,
    parikh_series_bruteforce,
    parse_grammar,
    replay_derivation,
    tree_dimension,
    tree_weight,
    tree_yield,
    word_weight_map,
)
from wcfg.trees import (
    DerivationSequence,
    ParseTree,
    derivation_from_tree,
    min_yield_lengths,
)

from wcfg import regularize

from fixtures import load_fixture
from grammar_gen import chain_grammar, random_nonexpansive_family

BT = load_fixture("binary_tail.wcfg")
# rule indices in binary_tail: 0: X1 -> a X2 X2, 1: X2 -> b X2, 2: X2 -> a

LEAF = ParseTree(2)
SMALL = ParseTree(0, [LEAF, LEAF])                      # a a a
TALL = ParseTree(0, [ParseTree(1, [LEAF]), LEAF])       # a b a a


def test_yield_weight_and_shape():
    assert tree_yield(BT, SMALL) == ("a", "a", "a")
    assert tree_yield(BT, TALL) == ("a", "b", "a", "a")
    assert tree_weight(BT, SMALL) == Fraction(1)


def test_weights_multiply_along_the_tree():
    g = parse_grammar(
        "semiring Q\nterminals a\nvariables X Y\nstart X\n"
        "rule X -> Y Y : 3\nrule Y -> a : 1/2\n"
    )
    t = ParseTree(0, [ParseTree(1), ParseTree(1)])
    assert tree_weight(g, t) == Fraction(3, 4)


def test_tree_dimension_counts_double_branching():
    assert tree_dimension(LEAF) == 0
    assert tree_dimension(ParseTree(1, [LEAF])) == 0  # unary spine adds nothing
    assert tree_dimension(SMALL) == 1
    deep = ParseTree(0, [SMALL, SMALL])  # untyped shape, fine for the measure
    assert tree_dimension(deep) == 2


def test_replay_derivation_validates_positions():
    # positions address the whole sentential form, terminals included
    d = DerivationSequence(("X1",), [(0, 0), (1, 2), (2, 1), (3, 2)])
    forms = replay_derivation(BT, d)
    assert forms[0] == ("X1",)
    assert forms[1] == ("a", "X2", "X2")
    assert forms[-1] == ("a", "a", "b", "a")
    with pytest.raises(ValueError, match="expects"):
        replay_derivation(BT, DerivationSequence(("X1",), [(0, 1)]))
    with pytest.raises(ValueError, match="outside"):
        replay_derivation(BT, DerivationSequence(("X1",), [(5, 0)]))


def test_derivation_index_is_max_live_variables():
    d = DerivationSequence(("X1",), [(0, 0), (1, 2), (2, 1), (3, 2)])
    assert derivation_index(BT, d) == 2


def test_derivation_from_tree_replays_to_the_yield():
    d = derivation_from_tree(BT, TALL)
    forms = replay_derivation(BT, d)
    assert forms[0] == ("X1",)
    assert forms[-1] == tree_yield(BT, TALL)


def test_derivation_from_tree_honours_child_order():
    # default order expands the leftmost child's subtree first
    d_left = derivation_from_tree(BT, TALL)
    reverse = lambda g, r, cs: list(range(len(cs) - 1, -1, -1))
    d_right = derivation_from_tree(BT, TALL, child_order=reverse)
    assert d_right != d_left
    assert replay_derivation(BT, d_right)[-1] == tree_yield(BT, TALL)


def test_derivation_from_tree_runs_each_subtree_to_the_end_first():
    # steps are (position, rule), in pre-order: the first child's child
    # (rule 2 at position 2) comes before the second child (at position 3)
    assert derivation_from_tree(BT, TALL).steps == ((0, 0), (1, 1), (2, 2), (3, 2))
    reverse = lambda g, r, cs: list(range(len(cs) - 1, -1, -1))
    assert derivation_from_tree(BT, TALL, child_order=reverse).steps == \
        ((0, 0), (2, 2), (1, 1), (2, 2))


def test_derivation_from_a_deep_tree():
    # X2 -> b X2 nested 3000 times: deeper than the Python call stack
    tree = LEAF
    for _ in range(3000):
        tree = ParseTree(1, [tree])
    steps = derivation_from_tree(BT, ParseTree(0, [tree, LEAF])).steps
    assert (len(steps), steps[-2], steps[-1]) == (3003, (3001, 2), (3002, 2))


def test_min_yield_lengths():
    lengths = min_yield_lengths(BT)
    assert lengths["X2"] == 1
    assert lengths["X1"] == 3


def pass_until_stable_yield_lengths(grammar):
    """Reference: full passes over every rule until nothing changes."""
    best = {v: None for v in grammar.variables}
    changed = True
    while changed:
        changed = False
        for rule in grammar.rules:
            lengths = [1 if grammar.is_terminal(s) else best[s] for s in rule.rhs]
            if None in lengths:
                continue
            if best[rule.lhs] is None or sum(lengths) < best[rule.lhs]:
                best[rule.lhs] = sum(lengths)
                changed = True
    return best


def test_min_yield_lengths_match_the_pass_until_stable_loop():
    grammars = [fam[key] for fam in random_nonexpansive_family(20261018, 40) for key in fam]
    # the regular form of the dimension-5 chain: 528 variables, 637 rules
    chain = regularize(chain_grammar(5))
    assert (len(chain.variables), len(chain.rules)) == (528, 637)
    # a variable with no terminal word, and one reached through it
    grammars += [chain, parse_grammar(
        "semiring N\nterminals a\nvariables S A B\nstart S\n"
        "rule S -> a : 1\nrule S -> A : 1\nrule A -> A a : 1\nrule B -> A S : 1\n")]
    assert any(None in min_yield_lengths(g).values() for g in grammars)
    for g in grammars:
        assert min_yield_lengths(g) == pass_until_stable_yield_lengths(g)


def test_enumerate_trees_by_terminal_budget():
    trees = enumerate_trees(BT, max_terminals=5)
    assert SMALL in trees and TALL in trees
    assert len(trees) == 6
    assert all(len(tree_yield(BT, t)) <= 5 for t in trees)


def test_enumerate_trees_for_other_variables():
    trees = enumerate_trees(BT, var="X2", max_terminals=3)
    assert len(trees) == 3


def test_terminal_budget_enumeration_detects_cycles():
    g = parse_grammar(
        "semiring Q\nterminals a\nvariables X\nstart X\n"
        "rule X -> X : 1\nrule X -> a : 1\n"
    )
    with pytest.raises(NotCycleFree):
        enumerate_trees(g, max_terminals=3)


def test_enumeration_budget_guard():
    amb = load_fixture("exponential_ambiguity.wcfg")
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_trees(amb, max_terminals=14, max_nodes=50)


def test_bruteforce_series_matches_iteration():
    from wcfg import grammar_series

    for name in ("binary_tail.wcfg", "catalan.wcfg", "exponential_ambiguity.wcfg",
                 "tropical_paths.wcfg"):
        g = load_fixture(name)
        assert parikh_series_bruteforce(g, 6) == grammar_series(g, 6), name


def test_word_weight_map_groups_by_word():
    words = word_weight_map(BT, 4)
    assert words[("a", "a", "a")] == 1
    assert words[("a", "b", "a", "a")] == 1
    assert words[("a", "a", "b", "a")] == 1
    assert len(words) == 3
    # cancellation drops words entirely
    cc = load_fixture("catalan_cancellation.wcfg")
    assert word_weight_map(cc, 5) == {("a",): Fraction(1)}
