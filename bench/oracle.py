"""Independent checks of the CLI's printed outputs.

Nothing here calls the code under measurement except
``wcfg.trees.parikh_series_bruteforce``, the tree-enumeration oracle.
Documents, series and certificate polynomials are parsed from text by
this module's own small parsers, and series of right-linear grammars
are evaluated degree by degree over their states.
"""

import re
from fractions import Fraction

INF = float("inf")


class OracleError(Exception):
    """An output failed its check; the message says which and why."""


def _parse_tropical(text):
    return INF if text == "inf" else int(text)


# keyword -> (zero, one, add, mul, parse)
SEMIRINGS = {
    "Q": (Fraction(0), Fraction(1), lambda x, y: x + y, lambda x, y: x * y, Fraction),
    "N": (0, 1, lambda x, y: x + y, lambda x, y: x * y, int),
    "tropical": (INF, 0, min, lambda x, y: x + y, _parse_tropical),
}


class Document:
    """The parts of a grammar document the checks need."""

    def __init__(self, semiring, terminals, variables, start, rules):
        self.semiring = semiring
        self.terminals = tuple(terminals)
        self.variables = tuple(variables)
        self.start = start
        self.rules = rules  # [(lhs, rhs tuple, weight)]


def parse_document(text):
    fields = {}
    rules = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "rule":
            body, _, weight = rest.rpartition(" : ")
            lhs, _, rhs = body.partition(" -> ")
            rhs = () if rhs.strip() == "eps" else tuple(rhs.split())
            rules.append((lhs.strip(), rhs, weight.strip()))
        else:
            fields[head] = rest.split()
    keyword = fields["semiring"][0]
    parse = SEMIRINGS[keyword][4]
    rules = [(lhs, rhs, parse(w)) for lhs, rhs, w in rules]
    return Document(keyword, fields["terminals"], fields["variables"],
                    fields["start"][0], rules)


def _degree(mono):
    return sum(mono)


def _clean(series, semiring):
    zero = SEMIRINGS[semiring][0]
    return {m: w for m, w in series.items() if w != zero}


def right_linear_series(doc, order):
    """Letter-count series of a right-linear grammar up to the order.

    Every rule body must be terminals followed by at most one variable.
    Coefficients are filled degree by degree: a rule that emits letters
    refers to a lower degree of its successor, and a rule that emits
    none to the same degree, so within a degree the states are taken
    successors first along the letter-free rules (which must be
    acyclic, as they are in a cycle-free grammar)."""
    index = {t: i for i, t in enumerate(doc.terminals)}
    variables = set(doc.variables)
    steps = {v: [] for v in doc.variables}
    silent = {v: [] for v in doc.variables}
    for lhs, rhs, weight in doc.rules:
        word, succ = rhs, None
        if rhs and rhs[-1] in variables:
            word, succ = rhs[:-1], rhs[-1]
        if any(s in variables for s in word):
            raise OracleError(f"rule for {lhs} is not right-linear")
        mono = [0] * len(index)
        for s in word:
            mono[index[s]] += 1
        steps[lhs].append((tuple(mono), len(word), succ, weight))
        if succ is not None and not word:
            silent[lhs].append(succ)
    ordered = _successors_first(doc.variables, silent)
    _, one, add, mul, _ = SEMIRINGS[doc.semiring]
    unit = (0,) * len(index)
    # by_degree[v][n] = {monomial of degree n: weight}
    by_degree = {v: [] for v in doc.variables}
    for n in range(order + 1):
        for v in ordered:
            acc = {}
            for mono, length, succ, weight in steps[v]:
                if length > n:
                    continue
                if succ is None:
                    part = {unit: one} if length == n else {}
                else:
                    part = by_degree[succ][n - length]
                for m, w in part.items():
                    key = tuple(a + b for a, b in zip(m, mono))
                    w = mul(weight, w)
                    acc[key] = add(acc[key], w) if key in acc else w
            by_degree[v].append(acc)
    out = {}
    for layer in by_degree[doc.start]:
        out.update(layer)
    return _clean(out, doc.semiring)


def _successors_first(variables, edges):
    """Variables ordered so each comes after everything its edges reach;
    raises OracleError on a cycle."""
    done, active, ordered = set(), set(), []
    for root in variables:
        if root in done:
            continue
        stack = [(root, iter(edges[root]))]
        active.add(root)
        while stack:
            v, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                stack.pop()
                active.discard(v)
                done.add(v)
                ordered.append(v)
            elif nxt in active:
                raise OracleError(f"letter-free cycle through {nxt}")
            elif nxt not in done:
                active.add(nxt)
                stack.append((nxt, iter(edges[nxt])))
    return ordered


def parse_series(text, doc):
    """The printed series of ``wcfg series`` as {monomial: weight}."""
    parse = SEMIRINGS[doc.semiring][4]
    index = {t: i for i, t in enumerate(doc.terminals)}
    out = {}
    for term in text.strip().split(" + "):
        weight, *factors = term.split("*")
        mono = [0] * len(index)
        for f in factors:
            name, _, exp = f.partition("^")
            mono[index[name]] += int(exp or 1)
        out[tuple(mono)] = parse(weight)
    return _clean(out, doc.semiring)


def truncate(series, order):
    return {m: w for m, w in series.items() if _degree(m) <= order}


def compare_series(got, want, what):
    if got != want:
        diff = sorted(set(got) ^ set(want) | {m for m in got if m in want and got[m] != want[m]})
        m = diff[0]
        raise OracleError(
            f"{what}: coefficient at {m} is {got.get(m)}, expected {want.get(m)}"
        )


def bruteforce(grammar, order):
    """The tree-enumeration series of a parsed wcfg Grammar."""
    from wcfg.trees import parikh_series_bruteforce

    zero = grammar.semiring.zero
    coeffs = parikh_series_bruteforce(grammar, order).coeffs
    return {m: w for m, w in coeffs.items() if w != zero}


# --- certificate polynomials ---------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z][A-Za-z0-9_]*)|(\S))")


def _tokens(text):
    pos = 0
    text = text.strip()
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise OracleError(f"cannot tokenize {text[pos:]!r}")
        number, name, sym = m.groups()
        if number is not None:
            out.append(("num", Fraction(number)))
        elif name is not None:
            out.append(("name", name))
        else:
            out.append(("sym", sym))
        pos = m.end()
    return out


# polynomials over Q in the names they meet: {sorted (name, exp) tuple: coefficient}

def _poly_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            merged = dict(ma)
            for n, e in mb:
                merged[n] = merged.get(n, 0) + e
            key = tuple(sorted(merged.items()))
            out[key] = out.get(key, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _poly_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def parse_polynomial(text):
    """Parse the canonical rendering of a system polynomial, e.g.
    ``(1 - a)*X1^2 - 2*a*X1 + a``, into {((name, exp), ...): Fraction}."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else (None, None)

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        sign = 1
        if peek() == ("sym", "-"):
            take()
            sign = -1
        acc = _poly_add({}, term(), sign)
        while peek() in (("sym", "+"), ("sym", "-")):
            sign = 1 if take()[1] == "+" else -1
            acc = _poly_add(acc, term(), sign)
        return acc

    def term():
        acc = factor()
        while peek() == ("sym", "*"):
            take()
            acc = _poly_mul(acc, factor())
        return acc

    def factor():
        kind, value = take()
        if kind == "num":
            base = {(): value}
        elif kind == "name":
            base = {((value, 1),): Fraction(1)}
        elif value == "(":
            base = expr()
            if take() != ("sym", ")"):
                raise OracleError(f"unbalanced parenthesis in {text!r}")
        else:
            raise OracleError(f"unexpected {value!r} in {text!r}")
        if peek() == ("sym", "^"):
            take()
            kind, exp = take()
            result = {(): Fraction(1)}
            for _ in range(int(exp)):
                result = _poly_mul(result, base)
            return result
        return base

    out = expr()
    if pos != len(toks):
        raise OracleError(f"trailing input in {text!r}")
    return out


def _series_mul(a, b, order):
    out = {}
    for ma, ca in a.items():
        da = _degree(ma)
        for mb, cb in b.items():
            if da + _degree(mb) > order:
                continue
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = out.get(key, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def certificate_degree(poly, variable):
    return max((dict(m).get(variable, 0) for m in poly), default=-1)


def evaluate_at_series(poly, variable, terminals, series, order):
    """poly with ``variable`` replaced by the rational series, truncated
    at the order; other names must be terminals."""
    index = {t: i for i, t in enumerate(terminals)}
    powers = {0: {(0,) * len(terminals): Fraction(1)}}
    out = {}
    for mono, coeff in poly.items():
        exps = dict(mono)
        j = exps.pop(variable, 0)
        while j not in powers:
            k = max(powers)
            powers[k + 1] = _series_mul(powers[k], series, order)
        t = [0] * len(terminals)
        for name, e in exps.items():
            if name not in index:
                raise OracleError(f"certificate mentions unknown name {name}")
            t[index[name]] += e
        part = _series_mul({tuple(t): coeff}, powers[j], order)
        for m, c in part.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}
