import importlib
from collections import Counter, deque
from fractions import Fraction

import pytest

from wcfg import (
    ExpansiveGrammar,
    GrammarFormatError,
    KTooSmall,
    at_most_k_grammar,
    degree,
    derivation_index,
    dimension_bound,
    enumerate_trees,
    grammar_series,
    ldf_derivation,
    load_grammar,
    parikh_series_bruteforce,
    parse_grammar,
    project_tree,
    regularize,
    render_grammar,
    replay_derivation,
    tree_weight,
    tree_yield,
    word_weight_map,
)
from wcfg.errors import BrokenDerivation
from wcfg.grammar import Grammar, Rule
from wcfg.regularize import (
    _annotated,
    _state_name,
    _trim,
    is_annotated,
    ldf_child_order,
    level_of,
    strip_annotation,
)
from wcfg.trees import ParseTree

from fixtures import load_fixture
from grammar_gen import chain_grammar, random_nonexpansive_family

BT = load_fixture("binary_tail.wcfg")

ANNOTATED_BT = """\
semiring Q
terminals a b
variables X1.1.e X1.1.m X2.0.e X2.0.m X2.1.e X2.1.m
start X1.1.m
rule X2.0.e -> a : 1
rule X2.0.e -> b X2.0.e : 1
rule X2.1.e -> b X2.1.e : 1
rule X1.1.e -> a X2.1.e X2.0.m : 1
rule X1.1.e -> a X2.0.m X2.1.e : 1
rule X1.1.e -> a X2.0.e X2.0.e : 1
rule X1.1.m -> X1.1.e : 1
rule X2.0.m -> X2.0.e : 1
rule X2.1.m -> X2.0.e : 1
rule X2.1.m -> X2.1.e : 1
"""

REGULAR_BT = """\
semiring Q
terminals a b
variables <X1.1.m> <X1.1.e> <X2.0.m|X2.1.e> <X2.0.e|X2.0.e> <X2.0.e|X2.1.e> <X2.0.e> <X2.1.e>
start <X1.1.m>
rule <X1.1.m> -> <X1.1.e> : 1
rule <X1.1.e> -> a <X2.0.m|X2.1.e> : 2
rule <X1.1.e> -> a <X2.0.e|X2.0.e> : 1
rule <X2.0.m|X2.1.e> -> <X2.0.e|X2.1.e> : 1
rule <X2.0.e|X2.0.e> -> a <X2.0.e> : 1
rule <X2.0.e|X2.0.e> -> b <X2.0.e|X2.0.e> : 1
rule <X2.0.e|X2.1.e> -> a <X2.1.e> : 1
rule <X2.0.e|X2.1.e> -> b <X2.0.e|X2.1.e> : 1
rule <X2.0.e> -> a : 1
rule <X2.0.e> -> b <X2.0.e> : 1
rule <X2.1.e> -> b <X2.1.e> : 1
"""


def test_annotated_variable_names_round_trip():
    assert _annotated("X2", 1, "e") == "X2.1.e"
    assert is_annotated("X2.1.e") and not is_annotated("X2")
    assert level_of("X2.1.e") == 1
    assert strip_annotation("X2.1.e") == "X2"


def test_regular_state_names_round_trip():
    name = _state_name(("X2.0.e", "X2.1.e"))
    assert name == "<X2.0.e|X2.1.e>"
    assert tuple(name[1:-1].split("|")) == ("X2.0.e", "X2.1.e")


def test_annotated_binary_tail_golden():
    assert render_grammar(at_most_k_grammar(BT, 1)) == ANNOTATED_BT
    # k defaults to the dimension bound, 1
    assert render_grammar(at_most_k_grammar(BT)) == ANNOTATED_BT


def test_annotation_rejects_k_below_the_dimension_bound():
    with pytest.raises(KTooSmall, match="dimension bound is 1"):
        at_most_k_grammar(BT, 0)
    with pytest.raises(KTooSmall):
        at_most_k_grammar(BT, -1)


def test_annotation_rejects_already_annotated_names():
    ann = at_most_k_grammar(BT, 1)
    with pytest.raises(GrammarFormatError):
        at_most_k_grammar(ann, 1)


def test_annotation_preserves_trees_weights_and_words():
    # one annotated tree per original tree, same yield and weight
    for name, bound in (("binary_tail.wcfg", 8), ("two_letter_star.wcfg", 6),
                        ("exponential_ambiguity.wcfg", 9),
                        ("tropical_paths.wcfg", 6)):
        g = load_fixture(name)
        ann = at_most_k_grammar(g, dimension_bound(g))
        original = Counter(
            (tree_yield(g, t), tree_weight(g, t))
            for t in enumerate_trees(g, max_terminals=bound))
        annotated = Counter(
            (tuple(ss for ss in tree_yield(ann, t)), tree_weight(ann, t))
            for t in enumerate_trees(ann, max_terminals=bound))
        assert original == annotated, name
        assert word_weight_map(g, bound) == word_weight_map(ann, bound), name


def test_annotation_with_larger_k_is_still_faithful():
    ann2 = at_most_k_grammar(BT, 2)
    assert word_weight_map(BT, 8) == word_weight_map(ann2, 8)
    assert grammar_series(ann2, 7) == grammar_series(BT, 7)


def test_projection_is_a_bijection_on_complete_trees():
    ann = at_most_k_grammar(BT, 1)
    annotated_trees = enumerate_trees(ann, max_terminals=7)
    projected = [project_tree(ann, t, BT) for t in annotated_trees]
    assert len(set(projected)) == len(projected)
    assert set(projected) == set(enumerate_trees(BT, max_terminals=7))
    for before, after in zip(annotated_trees, projected):
        assert tree_yield(ann, before) == tree_yield(BT, after)
        assert tree_weight(ann, before) == tree_weight(BT, after)


def test_ldf_child_order_visits_lower_levels_first_stably():
    g = parse_grammar(
        "semiring N\nterminals a b\nvariables X2.0.e X2.1.e X9.1.e\nstart X2.1.e\n"
        "rule X2.1.e -> X2.1.e a X2.0.e b : 1\n"
        "rule X2.1.e -> X9.1.e X2.0.e X2.1.e X2.0.e : 1\n"
        "rule X9.1.e -> X9.1.e X2.1.e : 1\n"
        "rule X2.0.e -> a : 1\n")

    def order(ri):
        rule = g.rules[ri]
        return ldf_child_order(g, rule, g.rhs_variables(rule))

    # terminals take no position; the level-0 occurrence comes first
    assert order(0) == [1, 0]
    # equal levels keep their relative order
    assert order(1) == [1, 3, 0, 2]
    assert order(2) == [0, 1]
    assert order(3) == []


def test_ldf_derivations_respect_the_width_bound():
    ann = at_most_k_grammar(BT, 1)
    k = max(level_of(v) for v in ann.variables)
    m = degree(ann)
    for tree in enumerate_trees(ann, max_terminals=7):
        d = ldf_derivation(ann, tree)
        assert derivation_index(ann, d) <= k * m + 1
        assert replay_derivation(ann, d)[-1] == tree_yield(ann, tree)


def test_ldf_derivation_raises_on_a_broken_invariant(monkeypatch):
    # the names claim level 0, so the bound k*m + 1 is 1, but a tree
    # that splits once already keeps two variables pending
    mislabelled = parse_grammar(
        "semiring N\nterminals a\nvariables X.0.e\nstart X.0.e\n"
        "rule X.0.e -> X.0.e X.0.e : 1\nrule X.0.e -> a : 1\n")
    leaf = ParseTree(1)
    with pytest.raises(BrokenDerivation, match="index 2 exceeds"):
        ldf_derivation(mislabelled, ParseTree(0, [leaf, leaf]))
    ann = at_most_k_grammar(BT, 1)
    tree = next(iter(enumerate_trees(ann, max_terminals=3)))
    # the package's regularize function shadows its module of that name
    module = importlib.import_module("wcfg.regularize")
    monkeypatch.setattr(module, "replay_derivation", lambda grammar, d: [("z",)])
    with pytest.raises(BrokenDerivation, match="yield"):
        ldf_derivation(ann, tree)


def test_ldf_derivation_width_bound_on_random_grammars():
    for fam in random_nonexpansive_family(99, 10):
        g = fam["N"]
        k = dimension_bound(g)
        ann = at_most_k_grammar(g, k)
        m = degree(ann)
        for tree in enumerate_trees(ann, max_terminals=5):
            assert derivation_index(ann, ldf_derivation(ann, tree)) <= k * m + 1


def test_regular_binary_tail_golden():
    assert render_grammar(regularize(BT)) == REGULAR_BT


def test_regularize_defaults_k_to_the_dimension_bound():
    assert regularize(BT) == regularize(BT, 1)


def test_regularize_rejects_expansive_grammars():
    for name in ("catalan.wcfg", "unary_double.wcfg", "two_letter_star_cfl.wcfg"):
        with pytest.raises(ExpansiveGrammar):
            regularize(load_fixture(name))


def test_duplicate_projections_pool_their_weights():
    # two annotated rules collapse onto one regular rule of weight 2
    reg = regularize(BT)
    merged = [r for r in reg.rules if r.weight == Fraction(2)]
    assert len(merged) == 1
    assert merged[0].lhs == "<X1.1.e>"
    assert merged[0].rhs == ("a", "<X2.0.m|X2.1.e>")


def test_regular_states_are_sorted_by_level():
    for fam in random_nonexpansive_family(31, 8):
        reg = regularize(fam["Q"])
        for state_name in reg.variables:
            levels = [level_of(v) for v in state_name[1:-1].split("|")]
            assert levels == sorted(levels), state_name


def test_regular_grammar_is_right_linear():
    reg = regularize(BT)
    for rule in reg.rules:
        variables = [s for s in rule.rhs if reg.is_variable(s)]
        assert len(variables) <= 1
        if variables:
            assert rule.rhs[-1] == variables[0]


def test_regularized_series_match_over_all_semirings():
    for name in ("binary_tail.wcfg", "two_letter_star.wcfg",
                 "exponential_ambiguity.wcfg", "tropical_paths.wcfg"):
        g = load_fixture(name)
        reg = regularize(g)
        assert grammar_series(reg, 6) == grammar_series(g, 6), name
        assert parikh_series_bruteforce(reg, 5) == parikh_series_bruteforce(g, 5), name


def test_regularize_random_family_battery():
    for fam in random_nonexpansive_family(5150, 12):
        k = dimension_bound(fam["Q"])
        for key, g in fam.items():
            ann = at_most_k_grammar(g, k)
            assert word_weight_map(g, 6) == word_weight_map(ann, 6), key
            reg = regularize(g, k)
            assert grammar_series(reg, 5) == grammar_series(g, 5), key


def reference_regularize(g, k):
    """Reference: the per-state closure, which sorts each rule's
    variables again at every state it expands."""
    def ldf_sort(sentence):
        sentence = list(sentence)
        terminals = [s for s in sentence if not is_annotated(s)]
        variables = [s for s in sentence if is_annotated(s)]
        variables.sort(key=level_of)
        return tuple(terminals + variables)

    annotated = at_most_k_grammar(g, k)
    cap = k * degree(annotated) + 1
    start_stack = (annotated.start,)
    order = []
    weights = {}
    states = [start_stack]
    seen = {start_stack}
    queue = deque([start_stack])
    while queue:
        stack = queue.popleft()
        lhs = _state_name(stack)
        head, rest = stack[0], stack[1:]
        for ri in annotated.rules_for(head):
            rule = annotated.rules[ri]
            emitted = tuple(s for s in rule.rhs if annotated.is_terminal(s))
            pushed = ldf_sort(s for s in rule.rhs if annotated.is_variable(s))
            successor = pushed + rest
            if len(successor) > cap:
                continue
            rhs = emitted + ((_state_name(successor),) if successor else ())
            key = (lhs, rhs)
            if key in weights:
                weights[key] = g.semiring.add(weights[key], rule.weight)
            else:
                weights[key] = rule.weight
                order.append(key)
            if successor and successor not in seen:
                seen.add(successor)
                states.append(successor)
                queue.append(successor)
    start_name = _state_name(start_stack)
    rules = [Rule(lhs, rhs, weights[(lhs, rhs)]) for lhs, rhs in order]
    names, rules = _trim([_state_name(s) for s in states], rules, start_name)
    return Grammar(g.semiring, g.terminals, names, start_name, rules)


def test_step_table_closure_matches_the_per_state_reference():
    cases = [(g, dimension_bound(g))
             for fam in random_nonexpansive_family(20261019, 30) for g in fam.values()]
    cases += [(BT, k) for k in (1, 2, 3)]
    for g, k in cases:
        assert render_grammar(regularize(g, k)) == render_grammar(reference_regularize(g, k))
    # the chain family of the regularize benchmark, with its state counts
    for k, states in zip(range(1, 6), (5, 14, 43, 145, 528)):
        reg = regularize(chain_grammar(k), k)
        assert len(reg.variables) == states
        assert render_grammar(reg) == render_grammar(reference_regularize(chain_grammar(k), k))


def test_each_annotated_rule_is_ordered_at_most_once(monkeypatch):
    module = importlib.import_module("wcfg.regularize")
    order = module.ldf_child_order
    calls = Counter()

    def counted(grammar, rule, children):
        calls[id(rule)] += 1
        return order(grammar, rule, children)

    monkeypatch.setattr(module, "ldf_child_order", counted)
    assert len(regularize(chain_grammar(5)).variables) == 528
    assert calls and max(calls.values()) == 1
