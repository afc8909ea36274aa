"""Structural analyses of weighted grammars: nullability, cycle-freeness,
nonexpansiveness, degree, and the parse-tree dimension bound.

Every negative classification comes with a replayable witness: an actual
derivation sequence exhibiting the offending behaviour, built from
shortest paths so that witnesses are small and deterministic.
"""

import heapq

from .errors import ExpansiveGrammar
from .trees import (
    ParseTree,
    SententialForm,
    combine_dimensions,
    min_yield_lengths,
)


def nullable_variables(grammar):
    """Variables deriving the empty word."""
    lengths = min_yield_lengths(grammar)
    return {v for v, n in lengths.items() if n == 0}


def _eps_trees(grammar, nullable):
    """A smallest empty-yield parse tree for each nullable variable, by
    passes in rule declaration order until one changes nothing.  A pass
    visits a rule only when a tree in its body shrank since its last
    visit, and sizes are kept beside the trees, so none is walked."""
    todo, users = [], {}
    for ri, rule in enumerate(grammar.rules):
        if rule.lhs in nullable and not any(grammar.is_terminal(s) for s in rule.rhs):
            todo.append(ri)
            for s in set(rule.rhs):
                users.setdefault(s, []).append(ri)
    best = {}  # variable -> (size, tree)
    while todo:
        queued, later = set(todo), set()
        while todo:
            ri = heapq.heappop(todo)
            rule = grammar.rules[ri]
            if any(s not in best for s in rule.rhs):
                continue
            size = 1 + sum(best[s][0] for s in rule.rhs)
            old = best.get(rule.lhs)
            if old is None or size < old[0]:
                best[rule.lhs] = (size, ParseTree(ri, [best[s][1] for s in rule.rhs]))
                for rj in users.get(rule.lhs, ()):
                    if rj <= ri:
                        later.add(rj)  # this pass is past it
                    elif rj not in queued:
                        queued.add(rj)
                        heapq.heappush(todo, rj)
        todo = sorted(later)
    return {v: tree for v, (_, tree) in best.items()}


# --- cycle-freeness ------------------------------------------------------

class CycleWitness:
    """A cycle X1 -> ... -> X1 in the unit-derivation graph, together
    with a derivation replaying X1 =>+ X1."""

    __slots__ = ("variables", "derivation")

    def __init__(self, variables, derivation):
        self.variables = tuple(variables)
        self.derivation = derivation

    def __repr__(self):
        return "CycleWitness(%s)" % " -> ".join(self.variables)


def _cycle_edges(grammar, nullable):
    """Edges (X, Y, rule index, occurrence position): rule X -> aYb with
    a, b variable-only and fully nullable."""
    edges = {v: [] for v in grammar.variables}
    for ri, rule in enumerate(grammar.rules):
        if any(grammar.is_terminal(s) for s in rule.rhs):
            continue
        for pos, sym in enumerate(rule.rhs):
            rest = rule.rhs[:pos] + rule.rhs[pos + 1:]
            if all(s in nullable for s in rest):
                edges[rule.lhs].append((sym, ri, pos))
    return edges


def is_cycle_free(grammar):
    """(True, None) when no variable derives exactly itself; otherwise
    (False, CycleWitness) for a shortest such cycle."""
    nullable = nullable_variables(grammar)
    edges = _cycle_edges(grammar, nullable)
    best = None
    for origin in grammar.variables:
        hops = _shortest_path(origin, origin, edges)
        if hops is not None and (best is None or len(hops) < len(best[1])):
            best = (origin, hops)
    if best is None:
        return True, None
    origin, hops = best
    nullable_trees = _eps_trees(grammar, nullable)
    form = SententialForm(origin)
    target = form.root
    names = [origin]
    for ri, pos in hops:
        rule = grammar.rules[ri]
        fresh = form.apply(target, ri, rule)
        target = fresh[pos]
        names.append(target.sym)
        for cell in fresh:
            if cell is not target:
                form.expand_by_tree(cell, nullable_trees[cell.sym], grammar)
    return False, CycleWitness(names, form.derivation())


# --- nonexpansiveness ----------------------------------------------------

class ExpansiveWitness:
    """A variable X, a rule A -> gamma reachable from X whose body can
    spawn X twice, the two positions in gamma doing so, and a derivation
    replaying X =>* w0 X w1 X w2."""

    __slots__ = ("variable", "rule", "positions", "derivation")

    def __init__(self, variable, rule, positions, derivation):
        self.variable = variable
        self.rule = rule
        self.positions = tuple(positions)
        self.derivation = derivation

    def __repr__(self):
        return "ExpansiveWitness(%s via rule %d at %s)" % (
            self.variable, self.rule, self.positions)


def _occurrence_edges(grammar):
    """Edges (X, Y, rule index, occurrence position): Y occurs in the
    body of a rule of X."""
    edges = {v: [] for v in grammar.variables}
    for ri, rule in enumerate(grammar.rules):
        for pos, sym in enumerate(rule.rhs):
            if grammar.is_variable(sym):
                edges[rule.lhs].append((sym, ri, pos))
    return edges


def _reachability(grammar, edges):
    """reach[X] = variables occurring in some sentential form derivable
    from X (reflexive-transitive)."""
    reach = {}
    for origin in grammar.variables:
        seen, stack = {origin}, [origin]
        while stack:
            for v, _, _ in edges[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        reach[origin] = seen
    return reach


def _shortest_path(origin, goal, edges):
    """Hop list [(rule, pos), ...] of a shortest nonempty path from
    origin to goal in an edge map (a cycle when origin == goal), or
    None when goal is unreachable.  Ties go to the edge met first."""
    parent = {}
    queue = [origin]
    while queue:
        nxt = []
        for u in queue:
            for v, ri, pos in edges[u]:
                if v in parent:
                    continue
                parent[v] = (u, ri, pos)
                if v == goal:
                    hops = []
                    while True:
                        u, ri, pos = parent[v]
                        hops.append((ri, pos))
                        if u == origin:
                            return hops[::-1]
                        v = u
                nxt.append(v)
        queue = nxt
    return None


def is_nonexpansive(grammar):
    """(True, None) when no derivation duplicates a variable; otherwise
    (False, ExpansiveWitness).

    Expansiveness check: some variable X reaches a rule A -> gamma (by
    occurrence) whose body holds two positions that each reach X back.
    All variables are examined, whether or not the start reaches them.
    """
    edges = _occurrence_edges(grammar)
    reach = _reachability(grammar, edges)
    # only a rule with two variable occurrences can duplicate one
    branching = [(ri, r) for ri, r in enumerate(grammar.rules) if len(grammar.rhs_variables(r)) > 1]
    for x in grammar.variables:
        for ri, rule in branching:
            if rule.lhs not in reach[x]:
                continue
            spots = [
                pos for pos, sym in enumerate(rule.rhs)
                if grammar.is_variable(sym) and x in reach[sym]
            ]
            if len(spots) < 2:
                continue
            i, j = spots[0], spots[1]
            form = SententialForm(x)
            hops = [] if x == rule.lhs else _shortest_path(x, rule.lhs, edges)
            target = form.root
            for hri, hpos in hops:
                fresh = form.apply(target, hri, grammar.rules[hri])
                target = fresh[hpos]
            fresh = form.apply(target, ri, rule)
            for pos in (i, j):
                cell = fresh[pos]
                back = [] if cell.sym == x else _shortest_path(cell.sym, x, edges)
                for hri, hpos in back:
                    inner = form.apply(cell, hri, grammar.rules[hri])
                    cell = inner[hpos]
            witness = ExpansiveWitness(x, ri, (i, j), form.derivation())
            return False, witness
    return True, None


# --- degree and dimension ------------------------------------------------

def degree(grammar):
    """Largest number of variable occurrences in a rule body, minus one;
    clamped to 0 for grammars whose rules are all terminal-only."""
    top = max(len(grammar.rhs_variables(r)) for r in grammar.rules)
    return max(top - 1, 0)


def dimension_bound(grammar):
    """Least k such that every parse tree of the grammar has dimension
    at most k, by Kleene iteration of the per-variable recurrence.

    The per-variable values of the least fixed point never exceed the
    variable count for a nonexpansive grammar; a value passing that cap
    certifies divergence and raises ExpansiveGrammar, with the
    duplication witness attached.
    """
    cap = len(grammar.variables)
    bound = {v: 0 for v in grammar.variables}
    while True:
        nxt = {}
        for v in grammar.variables:
            nxt[v] = max(
                combine_dimensions([bound[s] for s in grammar.rules[ri].rhs
                                    if grammar.is_variable(s)])
                for ri in grammar.rules_for(v)
            )
        if any(val > cap for val in nxt.values()):
            _, witness = is_nonexpansive(grammar)
            raise ExpansiveGrammar(
                "dimension recurrence diverges: grammar is expansive",
                witness,
            )
        if nxt == bound:
            return max(bound.values())
        bound = nxt
