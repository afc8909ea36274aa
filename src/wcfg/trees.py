"""Parse trees, derivation sequences, and brute-force enumeration.

These are the ground-truth oracles of the package: expensive, obviously
correct tree walks that the fast fixed-point machinery is tested against.
"""

from .errors import EnumerationBudgetExceeded, NotCycleFree
from .series import TruncatedSeries


class ParseTree:
    """A parse tree node: the index of the applied rule plus one subtree
    per variable occurrence on that rule's right-hand side, in order."""

    __slots__ = ("rule", "children")

    def __init__(self, rule, children=()):
        self.rule = rule
        self.children = tuple(children)

    def __eq__(self, other):
        return (
            isinstance(other, ParseTree)
            and self.rule == other.rule
            and self.children == other.children
        )

    def __hash__(self):
        return hash((self.rule, self.children))

    def __repr__(self):
        if not self.children:
            return "ParseTree(%d)" % self.rule
        return "ParseTree(%d, %r)" % (self.rule, list(self.children))


def tree_yield(grammar, tree):
    """The derived word, as a tuple of terminal names."""
    rule = grammar.rules[tree.rule]
    out = []
    child = iter(tree.children)
    for sym in rule.rhs:
        if grammar.is_terminal(sym):
            out.append(sym)
        else:
            out.extend(tree_yield(grammar, next(child)))
    return tuple(out)


def tree_weight(grammar, tree):
    """Product of the rule weights at every node."""
    sr = grammar.semiring
    w = grammar.rules[tree.rule].weight
    for child in tree.children:
        w = sr.mul(w, tree_weight(grammar, child))
    return w


def combine_dimensions(dims):
    """Dimension of a node whose children have dimensions `dims`: their
    maximum, plus one when that maximum is attained at least twice; 0
    for a childless node."""
    if not dims:
        return 0
    top = max(dims)
    if dims.count(top) >= 2:
        return top + 1
    return top


def tree_dimension(tree):
    """Branching measure of a tree (Strahler number), by
    combine_dimensions."""
    return combine_dimensions([tree_dimension(c) for c in tree.children])


class DerivationSequence:
    """A rewriting run: a start sentential form and a list of steps
    (position, rule index), each rewriting the variable at that position
    of the current form."""

    __slots__ = ("start", "steps")

    def __init__(self, start, steps):
        self.start = tuple(start)
        self.steps = tuple(tuple(s) for s in steps)

    def __eq__(self, other):
        return (
            isinstance(other, DerivationSequence)
            and self.start == other.start
            and self.steps == other.steps
        )

    def __repr__(self):
        return "DerivationSequence(%r, %d steps)" % (list(self.start), len(self.steps))


def replay_derivation(grammar, derivation):
    """Replay and validate a derivation; returns every sentential form,
    the start form first.  Raises ValueError when a step addresses a
    position that does not hold that rule's left-hand side."""
    form = list(derivation.start)
    forms = [tuple(form)]
    for pos, ri in derivation.steps:
        rule = grammar.rules[ri]
        if pos < 0 or pos >= len(form):
            raise ValueError("derivation step at position %d outside form of length %d"
                             % (pos, len(form)))
        if form[pos] != rule.lhs:
            raise ValueError("derivation step expects %s at position %d, found %s"
                             % (rule.lhs, pos, form[pos]))
        form[pos:pos + 1] = list(rule.rhs)
        forms.append(tuple(form))
    return forms


def derivation_index(grammar, derivation):
    """Largest number of variables in any sentential form of the run."""
    forms = replay_derivation(grammar, derivation)
    return max(
        sum(1 for sym in form if grammar.is_variable(sym))
        for form in forms
    )


class SententialForm:
    """A sentential form as a list of cells, starting from one symbol;
    rules are applied at tracked cells and every step is recorded as
    (position, rule index)."""

    class Cell:
        __slots__ = ("sym",)

        def __init__(self, sym):
            self.sym = sym

    def __init__(self, sym):
        self.root = self.Cell(sym)
        self.cells = [self.root]
        self.steps = []

    def apply(self, cell, ri, rule):
        """Rewrite `cell` by rule `ri`; returns the cells of its body."""
        pos = self.cells.index(cell)
        self.steps.append((pos, ri))
        fresh = [self.Cell(s) for s in rule.rhs]
        self.cells[pos:pos + 1] = fresh
        return fresh

    def expand_by_tree(self, cell, tree, grammar, child_order=None):
        """Derive `cell` to completion along `tree`, each subtree to the
        end before the next; ``child_order(grammar, rule, children)``
        picks their order (a permutation of child indices) and defaults
        to left-to-right.  The stack is explicit, so depth is no limit."""
        stack = [(cell, tree)]
        while stack:
            cell, tree = stack.pop()
            rule = grammar.rules[tree.rule]
            fresh = self.apply(cell, tree.rule, rule)
            var_cells = [c for c in fresh if grammar.is_variable(c.sym)]
            if child_order is None:
                order = range(len(tree.children))
            else:
                order = child_order(grammar, rule, tree.children)
            stack.extend((var_cells[j], tree.children[j]) for j in reversed(list(order)))

    def derivation(self):
        return DerivationSequence((self.root.sym,), self.steps)


def derivation_from_tree(grammar, tree, child_order=None):
    """Linearize a parse tree into a derivation sequence, by
    SententialForm.expand_by_tree; the default child order yields the
    leftmost derivation."""
    form = SententialForm(grammar.rules[tree.rule].lhs)
    form.expand_by_tree(form.root, tree, grammar, child_order)
    return form.derivation()


# --- enumeration ---------------------------------------------------------

def min_yield_lengths(grammar):
    """Length of the shortest terminal word each variable derives, or
    None for variables deriving no terminal word at all.

    A worklist of rules: a rule is examined again only when a variable
    in its body gets a shorter length."""
    best = {v: None for v in grammar.variables}
    users = {v: [] for v in grammar.variables}
    for ri, rule in enumerate(grammar.rules):
        for sym in rule.rhs:
            if sym in users:
                users[sym].append(ri)
    pending = set(range(len(grammar.rules)))
    while pending:
        rule = grammar.rules[pending.pop()]
        total = 0
        for sym in rule.rhs:
            if grammar.is_terminal(sym):
                total += 1
            elif best[sym] is None:
                break
            else:
                total += best[sym]
        else:
            if best[rule.lhs] is None or total < best[rule.lhs]:
                best[rule.lhs] = total
                pending.update(users[rule.lhs])
    return best


def enumerate_trees(grammar, max_terminals, var=None, max_nodes=500000):
    """All parse trees rooted at `var` (default: the start variable)
    with at most `max_terminals` terminal leaves.

    The enumeration is exhaustive for that leaf budget and requires a
    cycle-free grammar: a cycle is detected and raised as NotCycleFree.
    Raises EnumerationBudgetExceeded after materializing `max_nodes`
    trees.
    """
    if var is None:
        var = grammar.start
    shortest = min_yield_lengths(grammar)
    remaining = [max_nodes]
    memo = {}
    on_stack = []

    def build(symbol, limit):
        """Returns (tree, terminal leaf count) pairs."""
        key = (symbol, limit)
        got = memo.get(key)
        if got is not None:
            return got
        if key in on_stack:
            chain = [s for s, _ in on_stack[on_stack.index(key):]]
            raise NotCycleFree(tuple(chain) + (symbol,))
        on_stack.append(key)
        out = []
        for ri in grammar.rules_for(symbol):
            rule = grammar.rules[ri]
            nterm = sum(1 for s in rule.rhs if grammar.is_terminal(s))
            kids = [s for s in rule.rhs if grammar.is_variable(s)]
            if any(shortest[kid] is None for kid in kids):
                continue
            # reserve each later child's minimum before recursing
            suffix = [0] * (len(kids) + 1)
            for i in range(len(kids) - 1, -1, -1):
                suffix[i] = suffix[i + 1] + shortest[kids[i]]
            if nterm + suffix[0] > limit:
                continue
            combos = [((), nterm)]
            for i, kid in enumerate(kids):
                nxt = []
                for chosen, used in combos:
                    for sub, sub_used in build(kid, limit - used - suffix[i + 1]):
                        nxt.append((chosen + (sub,), used + sub_used))
                combos = nxt
                if not combos:
                    break
            for chosen, used in combos:
                remaining[0] -= 1
                if remaining[0] < 0:
                    raise EnumerationBudgetExceeded(
                        "tree enumeration budget exhausted")
                out.append((ParseTree(ri, chosen), used))
        on_stack.pop()
        memo[key] = out
        return out

    return [t for t, _ in build(var, max_terminals)]


def parikh_series_bruteforce(grammar, order, max_nodes=500000):
    """Letter-count series by explicit tree enumeration.

    Sums tree weights per terminal-count vector over all parse trees
    with at most `order` terminal leaves.  Exhaustive, and only
    meaningful, for cycle-free grammars: a cycle would make word
    weights infinite sums, and is raised as NotCycleFree."""
    sr = grammar.semiring
    coeffs = {}
    for tree in enumerate_trees(grammar, max_terminals=order,
                                max_nodes=max_nodes):
        vec = grammar.parikh_of(tree_yield(grammar, tree))
        w = tree_weight(grammar, tree)
        if vec in coeffs:
            coeffs[vec] = sr.add(coeffs[vec], w)
        else:
            coeffs[vec] = w
    return TruncatedSeries(sr, grammar.terminals, order, coeffs)


def word_weight_map(grammar, max_len, max_nodes=500000):
    """Weight of every derived word of length <= max_len, by tree
    enumeration; words of weight zero are dropped.  Cycle-free
    grammars only, as for parikh_series_bruteforce."""
    sr = grammar.semiring
    out = {}
    for tree in enumerate_trees(grammar, max_terminals=max_len,
                                max_nodes=max_nodes):
        word = tree_yield(grammar, tree)
        w = tree_weight(grammar, tree)
        if word in out:
            out[word] = sr.add(out[word], w)
        else:
            out[word] = w
    return {word: w for word, w in out.items() if not sr.is_zero(w)}
