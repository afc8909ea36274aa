"""Dimension annotation and the Parikh-equivalent regular grammar.

Three stages, all weight-preserving in the sense stated with each:

1. ``at_most_k_grammar`` rewrites a grammar so that every variable
   carries a dimension annotation.  ``X.d.e`` derives exactly the parse
   trees of ``X`` whose dimension is exactly ``d``; ``X.d.m`` those of
   dimension at most ``d`` (it only rewrites to ``X.e.e`` with e <= d,
   by weight-one promotion rules).  The annotated grammar generates the
   same words with the same weights as the original: annotating each
   node of a parse tree with its subtree's dimension, and inserting one
   promotion node wherever a rule grants slack, is a bijection on trees
   that multiplies in only weight-one factors.

2. ``ldf_derivation`` linearizes an annotated parse tree by always
   deriving lower-annotated children to completion first.  The number of
   pending variables along such a run never exceeds k*m + 1, where m is
   the annotated grammar's degree.

3. ``regularize`` turns the pending-variable stacks of those runs into
   grammar variables: state ``<X.0.e|Y.1.m>`` means "derive X.0.e, then
   Y.1.m".  Replacing the head of a stack by the variables of each of
   its rules, in ``ldf_child_order``, and emitting the rule's terminals
   up front gives a regular grammar whose Parikh series equals the
   input's over any commutative semiring.
"""

import itertools

from .analysis import degree, dimension_bound, is_nonexpansive
from .errors import BrokenDerivation, ExpansiveGrammar, GrammarFormatError, KTooSmall
from .grammar import ANNOTATED_NAME, PLAIN_NAME, Grammar, Rule
from .trees import (
    ParseTree,
    derivation_from_tree,
    derivation_index,
    replay_derivation,
    tree_yield,
)

EXACT = "e"
ATMOST = "m"


def is_annotated(name):
    return bool(ANNOTATED_NAME.match(name))


def level_of(name):
    """Annotation level of an annotated variable name."""
    return int(name.rsplit(".", 2)[1])


def strip_annotation(name):
    """Base symbol of an annotated name; other names pass through."""
    if is_annotated(name):
        return name.rsplit(".", 2)[0]
    return name


def _annotated(base, level, mode):
    return f"{base}.{level}.{mode}"


def at_most_k_grammar(g, k=None):
    """The annotated grammar whose variable ``X.d.e`` derives exactly the
    parse trees of X of dimension d, for 0 <= d <= k.

    A rule with no variables keeps dimension 0.  A one-variable rule
    passes the dimension through unchanged.  For a rule with n >= 2
    variables there are two ways a tree reaches dimension d: a unique
    child attains d (that child is annotated exactly, the rest get slack
    up to d-1), or at least two children attain d-1 (those are annotated
    exactly, the rest get slack up to d-2).  Slack positions are filled
    by at-most variables, whose only rules promote ``X.d.m`` to
    ``X.e.e`` for e <= d at weight one.  Every other weight is copied
    from the originating rule.

    k defaults to the grammar's dimension bound, and the annotated start
    ``S.k.m`` records it (level_of).  Raises KTooSmall when k is below
    that bound.
    """
    for name in g.variables + g.terminals:
        if not PLAIN_NAME.match(name):
            raise GrammarFormatError(
                f"dimension annotation needs plain symbol names, got {name!r}"
            )
    if k is not None and k < 0:
        raise KTooSmall(f"annotation level k = {k} is negative")
    bound = dimension_bound(g)
    if k is None:
        k = bound
    elif k < bound:
        raise KTooSmall(f"k = {k} but the grammar's dimension bound is {bound}")

    def annotate_rhs(rule, levels_modes):
        """Rule body with its i-th variable occurrence annotated by the
        i-th (level, mode) pair; terminals stay in place."""
        out = []
        it = iter(levels_modes)
        for sym in rule.rhs:
            if g.is_variable(sym):
                lv, md = next(it)
                out.append(_annotated(sym, lv, md))
            else:
                out.append(sym)
        return tuple(out)

    produced = []
    for rule in g.rules:
        nvars = len(g.rhs_variables(rule))
        if nvars == 0:
            produced.append(Rule(_annotated(rule.lhs, 0, EXACT), rule.rhs, rule.weight))
    for rule in g.rules:
        if len(g.rhs_variables(rule)) == 1:
            for d in range(k + 1):
                produced.append(Rule(
                    _annotated(rule.lhs, d, EXACT),
                    annotate_rhs(rule, [(d, EXACT)]),
                    rule.weight,
                ))
    for rule in g.rules:
        nvars = len(g.rhs_variables(rule))
        if nvars < 2:
            continue
        for d in range(1, k + 1):
            for j in range(nvars):
                pairs = [(d, EXACT) if i == j else (d - 1, ATMOST) for i in range(nvars)]
                produced.append(Rule(
                    _annotated(rule.lhs, d, EXACT), annotate_rhs(rule, pairs), rule.weight,
                ))
    for rule in g.rules:
        nvars = len(g.rhs_variables(rule))
        if nvars < 2:
            continue
        for d in range(1, k + 1):
            for size in range(2, nvars + 1):
                for chosen in itertools.combinations(range(nvars), size):
                    if d == 1 and size < nvars:
                        continue  # the slack level d-2 does not exist
                    pairs = [(d - 1, EXACT) if i in chosen else (d - 2, ATMOST)
                             for i in range(nvars)]
                    produced.append(Rule(
                        _annotated(rule.lhs, d, EXACT), annotate_rhs(rule, pairs), rule.weight,
                    ))
    one = g.semiring.one
    for base in g.variables:
        for d in range(k + 1):
            for e in range(d + 1):
                produced.append(Rule(
                    _annotated(base, d, ATMOST), (_annotated(base, e, EXACT),), one,
                ))

    declared = []
    for base in g.variables:
        for d in range(k + 1):
            declared.append(_annotated(base, d, EXACT))
            declared.append(_annotated(base, d, ATMOST))
    start = _annotated(g.start, k, ATMOST)

    # Annotations the rule families never produce for (variables whose
    # base has no rule of the matching shape) would be declared without
    # rules; drop them.
    declared, produced = _trim(declared, produced, start)
    return Grammar(g.semiring, g.terminals, declared, start, produced)


def _trim(names, rules, start):
    """Drop the names that head no rule, and transitively the rules that
    mention them; both lists keep their order.  The start stays declared
    so that an empty grammar fails loudly rather than with a bogus
    undeclared-start complaint."""
    while True:
        ruled = {r.lhs for r in rules}
        dead = {n for n in names if n not in ruled and n != start}
        if not dead:
            return names, rules
        names = [n for n in names if n not in dead]
        rules = [r for r in rules
                 if r.lhs not in dead and not any(s in dead for s in r.rhs)]


def ldf_child_order(grammar, rule, children):
    """Child visit order for lowest-annotation-first linearization:
    stable ascending by the annotation level of the rule's variable
    occurrences."""
    levels = [level_of(s) for s in rule.rhs if grammar.is_variable(s)]
    return sorted(range(len(levels)), key=lambda i: levels[i])


def ldf_derivation(grammar, tree):
    """The unique derivation sequence of an annotated parse tree that
    always finishes lower-annotated children first (stably, left to
    right within a level).

    Its index is at most k*m + 1 for an annotated grammar with top
    level k and degree m; a derivation that breaks that bound or does not
    preserve the yield raises BrokenDerivation.
    """
    derivation = derivation_from_tree(grammar, tree, child_order=ldf_child_order)
    k = max(level_of(v) for v in grammar.variables)
    m = degree(grammar)
    index = derivation_index(grammar, derivation)
    if index > k * m + 1:
        raise BrokenDerivation(f"derivation index {index} exceeds k*m + 1 = {k * m + 1}")
    if replay_derivation(grammar, derivation)[-1] != tuple(tree_yield(grammar, tree)):
        raise BrokenDerivation("derivation does not reproduce the tree's yield")
    return derivation


def _state_name(stack):
    return "<" + "|".join(stack) + ">"


def regularize(g, k=None):
    """A regular grammar with the same Parikh series as ``g``, over any
    commutative semiring.

    Builds the annotated grammar at level k (default: the dimension
    bound), then closes the stacks of pending variables of
    lowest-annotation-first derivations breadth-first from the start
    variable.  A step table, filled in once per head at the head's first
    expansion, holds each annotated rule's terminals, its variables in
    ldf_child_order and its weight; a stack's successors are the
    variables of each step of its head, followed by the rest of the
    stack.  Stacks never need to exceed k*m + 1 entries (m the
    annotated degree); longer successors belong to no completable run
    and are dropped.  Distinct annotated rules can collapse to the same
    stack rule, in which case their weights add — the semiring sum over
    the pooled derivations.

    Raises ExpansiveGrammar when ``g`` is expansive: then no annotation
    level suffices.
    """
    ok, witness = is_nonexpansive(g)
    if not ok:
        raise ExpansiveGrammar(
            "grammar is expansive: parse-tree dimension is unbounded", witness
        )
    annotated = at_most_k_grammar(g, k)
    k = level_of(annotated.start)
    m = degree(annotated)
    cap = k * m + 1

    steps = {}  # head -> (emitted, pushed, weight) of each of its rules
    start_stack = (annotated.start,)
    name_of = {start_stack: _state_name(start_stack)}  # in discovery order
    weights = {}  # (lhs name, rhs tuple) -> merged weight, first-construction order
    states = [start_stack]
    for stack in states:  # grows while it is walked: breadth-first
        head, rest = stack[0], stack[1:]
        if head not in steps:
            steps[head] = []
            for ri in annotated.rules_for(head):
                rule = annotated.rules[ri]
                variables = annotated.rhs_variables(rule)
                emitted = tuple(s for s in rule.rhs if annotated.is_terminal(s))
                pushed = tuple(variables[i] for i in ldf_child_order(annotated, rule, variables))
                steps[head].append((emitted, pushed, rule.weight))
        lhs = name_of[stack]
        for emitted, pushed, weight in steps[head]:
            successor = pushed + rest
            if len(successor) > cap:
                continue
            if successor:
                name = name_of.get(successor)
                if name is None:
                    name = name_of[successor] = _state_name(successor)
                    states.append(successor)
                rhs = emitted + (name,)
            else:
                rhs = emitted
            key = (lhs, rhs)
            weights[key] = g.semiring.add(weights[key], weight) if key in weights else weight

    start_name = name_of[start_stack]
    rules = [Rule(lhs, rhs, weight) for (lhs, rhs), weight in weights.items()]
    names, rules = _trim(list(name_of.values()), rules, start_name)
    return Grammar(g.semiring, g.terminals, names, start_name, rules)


def project_tree(annotated, tree, original):
    """Map an annotated parse tree back to the original grammar's tree
    with the same yield and weight: promotion nodes are contracted and
    annotations stripped."""
    by_shape = {(r.lhs, r.rhs): i for i, r in enumerate(original.rules)}

    def walk(t):
        rule = annotated.rules[t.rule]
        if rule.lhs.endswith("." + ATMOST):
            return walk(t.children[0])
        lhs = strip_annotation(rule.lhs)
        rhs = tuple(strip_annotation(s) for s in rule.rhs)
        return ParseTree(by_shape[(lhs, rhs)], tuple(walk(c) for c in t.children))

    return walk(tree)
