"""Truncated power series over a commutative semiring, and the algebraic
systems of equations attached to weighted grammars.

A grammar with variables X1..Xn induces the system

    Xi = sum over rules Xi -> gamma of  W(rule) * commute(gamma)

where commute(gamma) multiplies out the right-hand side in commuting
symbols.  Its least solution is the commutative word-weight series.
approximate computes it one total degree in the terminal symbols at a
time (a semi-naive graded sweep): for a cycle-free grammar the degree-n
part of each variable depends only on lower degrees and, through its
terminal-free terms, on an acyclic set of same-degree parts, so every
degree is computed once, in the same way over every semiring.  A cyclic
system raises NotCycleFree.
"""

from fractions import Fraction
from functools import partial
from itertools import compress

from .errors import DegenerateLeadingTerm, NotCycleFree, PrecisionExceeded, SymbolMismatch
from .grammar import Grammar, Rule
from .monomials import (
    grade_key,
    mono_degree,
    mono_is_one,
    mono_mul,
    mono_one,
    render_monomial,
)
from .polynomials import Polynomial
from .semirings import RATIONALS


class TruncatedSeries:
    """A power series in commuting symbols, truncated at a total degree.

    Coefficients live in an arbitrary commutative semiring; zero
    coefficients are never stored.
    """

    __slots__ = ("semiring", "syms", "order", "coeffs")

    def __init__(self, semiring, syms, order, coeffs=None):
        self.semiring = semiring
        self.syms = tuple(syms)
        self.order = order
        clean = {}
        if coeffs:
            for mono, w in coeffs.items():
                if mono_degree(mono) <= order and not semiring.is_zero(w):
                    clean[mono] = w
        self.coeffs = clean

    @classmethod
    def zero(cls, semiring, syms, order):
        return cls(semiring, syms, order)

    @classmethod
    def one(cls, semiring, syms, order):
        return cls(semiring, syms, order, {mono_one(len(syms)): semiring.one})

    def coefficient(self, mono):
        return self.coeffs.get(mono, self.semiring.zero)

    def is_zero(self):
        return not self.coeffs

    def truncated(self, order):
        """A copy keeping only terms of total degree <= order; raising
        the order would claim coefficients the series does not know, and
        raises PrecisionExceeded."""
        if order > self.order:
            raise PrecisionExceeded(
                f"series truncated at order {self.order} cannot be read at order {order}")
        kept = {m: w for m, w in self.coeffs.items() if mono_degree(m) <= order}
        return TruncatedSeries(self.semiring, self.syms, order, kept)

    def _common_order(self, other):
        """The order both operands are known to: the lower one.  Series
        over different symbols or semirings raise SymbolMismatch."""
        if other.syms != self.syms or other.semiring != self.semiring:
            raise SymbolMismatch(
                f"series over {self.semiring.keyword} {self.syms} and "
                f"{other.semiring.keyword} {other.syms}")
        return min(self.order, other.order)

    def __add__(self, other):
        order = self._common_order(other)
        sr = self.semiring
        out = dict(self.coeffs)
        for mono, w in other.coeffs.items():
            if mono in out:
                out[mono] = sr.add(out[mono], w)
            else:
                out[mono] = w
        return TruncatedSeries(sr, self.syms, order, out)

    def __mul__(self, other):
        order = self._common_order(other)
        sr = self.semiring
        out = {}
        for m1, w1 in self.coeffs.items():
            d1 = mono_degree(m1)
            for m2, w2 in other.coeffs.items():
                if d1 + mono_degree(m2) > order:
                    continue
                mono = mono_mul(m1, m2)
                prod = sr.mul(w1, w2)
                if mono in out:
                    out[mono] = sr.add(out[mono], prod)
                else:
                    out[mono] = prod
        return TruncatedSeries(sr, self.syms, order, out)

    def __pow__(self, exponent):
        result = TruncatedSeries.one(self.semiring, self.syms, self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.semiring == other.semiring
            and self.syms == other.syms
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.semiring.keyword, self.syms, self.order,
                     frozenset(self.coeffs.items())))

    def __repr__(self):
        return "TruncatedSeries(%s)" % render_series(self)


def render_series(series):
    """Terms in ascending degree order, joined by ' + '."""
    if not series.coeffs:
        return series.semiring.render(series.semiring.zero)
    parts = []
    for mono in sorted(series.coeffs, key=grade_key):
        w = series.semiring.render(series.coeffs[mono])
        if mono_is_one(mono):
            parts.append(w)
        else:
            parts.append("%s*%s" % (w, render_monomial(mono, series.syms)))
    return " + ".join(parts)


class AlgebraicSystem:
    """The commutative equation system of a weighted grammar.

    The start variable is listed first; the remaining variables keep
    their declaration order.  Each equation is a tuple of terms
    (weight, terminal monomial, variable monomial), with like terms
    merged.
    """

    __slots__ = ("semiring", "terminals", "variables", "equations")

    def __init__(self, semiring, terminals, variables, equations):
        self.semiring = semiring
        self.terminals = tuple(terminals)
        self.variables = tuple(variables)
        self.equations = tuple(tuple(eq) for eq in equations)


def system_variable_order(grammar):
    """Start variable first, then the rest in declaration order."""
    rest = [v for v in grammar.variables if v != grammar.start]
    return (grammar.start,) + tuple(rest)


def algebraic_system(grammar):
    variables = system_variable_order(grammar)
    vindex = {v: i for i, v in enumerate(variables)}
    nt = len(grammar.terminals)
    nv = len(variables)
    sr = grammar.semiring
    equations = []
    for var in variables:
        merged = {}
        for ri in grammar.rules_for(var):
            rule = grammar.rules[ri]
            texp = [0] * nt
            vexp = [0] * nv
            for sym in rule.rhs:
                if sym in grammar.terminal_index:
                    texp[grammar.terminal_index[sym]] += 1
                else:
                    vexp[vindex[sym]] += 1
            key = (tuple(texp), tuple(vexp))
            if key in merged:
                merged[key] = sr.add(merged[key], rule.weight)
            else:
                merged[key] = rule.weight
        eq = [
            (w, tm, vm)
            for (tm, vm), w in merged.items()
            if not sr.is_zero(w)
        ]
        if len(eq) > 1:
            eq.sort(key=lambda t: (grade_key(t[2]), grade_key(t[1])))
        equations.append(tuple(eq))
    return AlgebraicSystem(sr, grammar.terminals, variables, equations)


def _convolve(sr, left, right, n):
    """Degree-n slice of the product of two graded series, given as
    lists of slices.  left[n] is read only when right[0] is nonzero, and
    right[n] only when left[0] is: these are the product's same-degree
    dependencies."""
    out = {}
    for a in range(n + 1):
        b = n - a
        if a == n and not right[0] or b == n and not left[0]:
            continue
        lslice, rslice = left[a], right[b]
        if not lslice or not rslice:
            continue
        for m1, w1 in lslice.items():
            for m2, w2 in rslice.items():
                mono = mono_mul(m1, m2)
                w = sr.mul(w1, w2)
                out[mono] = sr.add(out[mono], w) if mono in out else w
    return {m: w for m, w in out.items() if not sr.is_zero(w)}


def _dependency_order(edges):
    """(order, rest) for a graph given by each node's set of
    dependencies: the nodes placed by repeatedly taking one whose
    dependencies are all placed (Kahn), dependencies first, and the
    rest, which lie on a cycle or depend on one."""
    waiting = [len(deps) for deps in edges]
    users = [[] for _ in edges]
    for i, deps in enumerate(edges):
        for j in deps:
            users[j].append(i)
    ready = [i for i, count in enumerate(waiting) if not count]
    order = []
    while ready:
        j = ready.pop()
        order.append(j)
        for i in users[j]:
            waiting[i] -= 1
            if not waiting[i]:
                ready.append(i)
    return order, [i for i, count in enumerate(waiting) if count]


class _GradedSweep:
    """The least solution of a cycle-free algebraic system, one degree
    at a time.

    Every variable, and every product of variables that a term needs,
    is a node holding graded slices: ``slices[n]`` maps the terminal
    monomials of total degree n to their nonzero weights.  A product
    X_a*X_b*X_c is X_a*X_b times X_c, each prefix a node of its own, so
    one more degree of it is one convolution step.  Degree 0 is a fixed
    point over scalars, found by Kleene iteration.  At degree n >= 1 a
    term whose terminal monomial has degree d >= 1 reads its product at
    degree n - d, already known; the same-degree reads, of terminal-free
    terms and of products (a factor's degree-n slice times the other's
    nonzero constant term), form a graph that is acyclic for a
    cycle-free grammar, so every node is computed once per degree, in
    dependency order.  A path of that graph from one variable to
    another is a unit derivation, so a node the order cannot place lies
    on a cycle X =>+ X or behind one, and NotCycleFree is raised with
    the system variables left unplaced.
    """

    __slots__ = ("sr", "syms", "values", "order")

    def __init__(self, system):
        sr = self.sr = system.semiring
        self.syms = system.terminals
        one = mono_one(len(self.syms))
        everywhere = range(len(system.variables))
        equations = [
            [(weight, tmono, [j for j in compress(everywhere, vmono)
                              for _ in range(vmono[j])])
             for weight, tmono, vmono in eq]
            for eq in system.equations
        ]
        scalars = _scalar_fixpoint(sr, equations, system.variables)
        self.values = [[{one: x} if not sr.is_zero(x) else {}] for x in scalars]
        nodes = list(self.values)
        terms = [[] for _ in everywhere]
        computes = [partial(_rhs_slice, sr, t) for t in terms]
        edges = [set() for _ in everywhere]

        def add_node(slices, compute, needs):
            nodes.append(slices)
            computes.append(compute)
            edges.append(needs)
            return len(nodes) - 1

        unit = add_node([{one: sr.one}], lambda n: {}, set())
        products = {}  # factor tuple -> node
        for i, eq in enumerate(equations):
            for weight, tmono, factors in eq:
                k = unit if not factors else factors[0]
                for end in range(2, len(factors) + 1):
                    key = tuple(factors[:end])
                    if key not in products:
                        left, right = nodes[k], nodes[factors[end - 1]]
                        needs = {k} if right[0] else set()
                        if left[0]:
                            needs.add(factors[end - 1])
                        products[key] = add_node(
                            [_convolve(sr, left, right, 0)],
                            partial(_convolve, sr, left, right), needs)
                    k = products[key]
                dt = mono_degree(tmono)
                terms[i].append((weight, tmono, dt, nodes[k]))
                if not dt:
                    edges[i].add(k)
        order, rest = _dependency_order(edges)
        if rest:
            raise NotCycleFree([system.variables[k] for k in rest if k in everywhere],
                               path=False)
        self.order = [(nodes[k], computes[k]) for k in order]

    def extend(self, order):
        """Compute degrees 1 ... ``order``, each once, in dependency
        order."""
        for n in range(1, order + 1):
            for slices, compute in self.order:
                slices.append(compute(n))

    def series(self, order):
        """One series per variable, truncated at ``order``."""
        out = []
        for slices in self.values:
            coeffs = {}
            for piece in slices:
                coeffs.update(piece)
            out.append(TruncatedSeries(self.sr, self.syms, order, coeffs))
        return tuple(out)


def _rhs_slice(sr, terms, n):
    """Degree-n slice of a right-hand side, given as its terms (weight,
    terminal monomial, its degree, graded slices of the variable
    product)."""
    out = {}
    for weight, tmono, dt, slices in terms:
        if dt > n:
            continue
        for mono, w in slices[n - dt].items():
            if dt:
                mono = mono_mul(mono, tmono)
            w = sr.mul(weight, w)
            out[mono] = sr.add(out[mono], w) if mono in out else w
    return {m: w for m, w in out.items() if not sr.is_zero(w)}


def _scalar_fixpoint(sr, equations, variables):
    """The constant terms: Kleene iteration of the terminal-free terms
    over scalars, from zero.  ``equations`` lists (weight, terminal
    monomial, factor variables) per variable of ``variables``.

    Pass p yields the weight of the empty-yield trees of height at most
    p.  In a cycle-free system every such tree has height at most |V|,
    since a variable repeated on one path would be a unit cycle
    X =>+ X; so pass |V| + 1 repeats pass |V|.  A system still changing
    at that pass is cyclic, and NotCycleFree is raised with the
    variables whose constant term changed last."""
    current = [sr.zero] * len(equations)
    for _ in range(len(equations) + 1):
        nxt = []
        for eq in equations:
            acc = sr.zero
            for weight, tmono, factors in eq:
                if mono_is_one(tmono):
                    for j in factors:
                        weight = sr.mul(weight, current[j])
                    acc = sr.add(acc, weight)
            nxt.append(acc)
        if nxt == current:
            return current
        current, last = nxt, current
    raise NotCycleFree([v for v, a, b in zip(variables, current, last) if a != b], path=False)


def approximate(system, order):
    """The least solution of a cycle-free system truncated at total
    degree ``order``, one series per system variable (same order as
    ``system.variables``).

    Computed by a new graded sweep (_GradedSweep) at each call.  A
    cyclic system, whose weights would be infinite sums, raises
    NotCycleFree.
    """
    sweep = _GradedSweep(system)
    sweep.extend(order)
    return sweep.series(order)


def grammar_series(grammar, order):
    """The commutative word-weight series of the start variable."""
    system = algebraic_system(grammar)
    return approximate(system, order)[0]


# --- bridges between polynomials and series -----------------------------

def poly_to_series(poly, order):
    """View a rational-coefficient polynomial as a truncated series."""
    coeffs = {m: c for m, c in poly.terms.items() if mono_degree(m) <= order}
    return TruncatedSeries(RATIONALS, poly.syms, order, coeffs)


def eval_poly_at_series(coeffs, series, order):
    """Evaluate sum_j coeffs[j] * series^j, truncated at the order.

    ``coeffs`` lists polynomials over the terminal symbols by ascending
    power of the series argument.
    """
    acc = TruncatedSeries.zero(RATIONALS, series.syms, order)
    power = TruncatedSeries.one(RATIONALS, series.syms, order)
    for j, poly in enumerate(coeffs):
        if j > 0:
            power = power * series
        if poly.is_zero():
            continue
        acc = acc + poly_to_series(poly, order) * power
    return acc


# --- the witness grammar of a linear equation ----------------------------

def _mono_word(mono, syms):
    """The canonical word spelling a commutative monomial: each symbol
    repeated by its exponent, in declaration order."""
    word = []
    for sym, exp in zip(syms, mono):
        word.extend([sym] * exp)
    return tuple(word)


def grammar_from_linear(c, d, terminals, start):
    """The right-linear grammar solving c(Sigma) * X = d(Sigma): its
    series is d/c, and grammar_series expands it.

    Requires the constant term c0 of ``c`` to be nonzero; the equation is
    rescaled to X = t + s*X with t = d/c0 and s = 1 - c/c0, and each term
    of t, then of s, each in grade_key order, becomes one weighted rule
    X -> w or X -> w X, w spelling the term's monomial.  Raises
    DegenerateLeadingTerm when c vanishes at the origin, where d/c has
    no power series.
    """
    c0 = c.constant_term()
    if c0 == 0:
        raise DegenerateLeadingTerm(
            "coefficient of the solved variable vanishes at the origin"
        )
    t = d.scale(Fraction(1) / c0)
    s = Polynomial.const(c.syms, 1) - c.scale(Fraction(1) / c0)
    rules = [Rule(start, _mono_word(m, terminals), t.terms[m])
             for m in sorted(t.terms, key=grade_key)]
    rules += [Rule(start, _mono_word(m, terminals) + (start,), s.terms[m])
              for m in sorted(s.terms, key=grade_key)]
    if not rules:
        # the solved series is identically zero: keep that visible as a
        # single weight-zero rule rather than an empty grammar
        rules.append(Rule(start, (), Fraction(0)))
    return Grammar(RATIONALS, terminals, (start,), start, rules)
