"""Weighted context-free grammars and their document format.

A grammar document is UTF-8, line oriented, `#` starts a comment:

    semiring Q              # or N, tropical
    terminals a b
    variables X Y
    start X
    rule X -> a X Y : 1/2
    rule Y -> eps : 3

Weights live in the declared semiring; `eps` denotes the empty right-hand
side and is reserved.  Plain symbol names match [A-Za-z][A-Za-z0-9_]*; the
parser additionally accepts the annotated (`X.2.e`, `X.2.m`) and state
(`<X.0.e|Y.1.m>`) names that the regularizer emits, so its output documents
reload.
"""

import re

from .errors import GrammarFormatError, MissingRules
from .semirings import semiring_by_keyword

PLAIN_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
ANNOTATED_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\.[0-9]+\.[em]\Z")
_ANNOT = r"[A-Za-z][A-Za-z0-9_]*\.[0-9]+\.[em]"
STATE_NAME = re.compile(rf"<{_ANNOT}(\|{_ANNOT})*>\Z")

RESERVED = {"eps", "rule", "semiring", "terminals", "variables", "start"}


def valid_symbol_name(name):
    if name in RESERVED:
        return False
    return bool(PLAIN_NAME.match(name) or ANNOTATED_NAME.match(name) or STATE_NAME.match(name))


class Rule:
    """One weighted production lhs -> rhs with a weight from the grammar's
    semiring.  rhs is a tuple of symbol names; the empty tuple is the
    empty word."""

    __slots__ = ("lhs", "rhs", "weight")

    def __init__(self, lhs, rhs, weight):
        self.lhs = lhs
        self.rhs = tuple(rhs)
        self.weight = weight

    def __eq__(self, other):
        return (
            isinstance(other, Rule)
            and self.lhs == other.lhs
            and self.rhs == other.rhs
            and self.weight == other.weight
        )

    def __hash__(self):
        return hash((self.lhs, self.rhs, self.weight))

    def __repr__(self):
        rhs = " ".join(self.rhs) if self.rhs else "eps"
        return f"Rule({self.lhs} -> {rhs} : {self.weight})"


class Grammar:
    """A weighted context-free grammar over a fixed commutative semiring.

    `terminals` and `variables` keep declaration order; rule order is the
    declaration order too and is meaningful: witnesses and canonical
    renderings break ties by it.
    """

    def __init__(self, semiring, terminals, variables, start, rules):
        self.semiring = semiring
        self.terminals = tuple(terminals)
        self.variables = tuple(variables)
        self.start = start
        self.rules = tuple(rules)

        overlap = set(self.terminals) & set(self.variables)
        if overlap:
            raise GrammarFormatError(f"symbols declared both terminal and variable: {sorted(overlap)}")
        if len(set(self.terminals)) != len(self.terminals):
            raise GrammarFormatError("duplicate terminal declaration")
        if len(set(self.variables)) != len(self.variables):
            raise GrammarFormatError("duplicate variable declaration")
        if start not in set(self.variables):
            raise GrammarFormatError(f"start symbol {start!r} is not a declared variable")

        self.terminal_index = {t: i for i, t in enumerate(self.terminals)}
        self.variable_index = {v: i for i, v in enumerate(self.variables)}
        self._rules_by_lhs = {v: [] for v in self.variables}
        seen = set()
        for i, rule in enumerate(self.rules):
            if rule.lhs not in self.variable_index:
                raise GrammarFormatError(f"rule for undeclared variable {rule.lhs!r}")
            for sym in rule.rhs:
                if sym not in self.terminal_index and sym not in self.variable_index:
                    raise GrammarFormatError(f"undeclared symbol {sym!r} in rule for {rule.lhs}")
            if (rule.lhs, rule.rhs) in seen:
                raise GrammarFormatError(f"duplicate rule {rule.lhs} -> {' '.join(rule.rhs) or 'eps'}")
            seen.add((rule.lhs, rule.rhs))
            if not self.semiring.check(rule.weight):
                raise GrammarFormatError(
                    f"weight {rule.weight!r} invalid for semiring {self.semiring.name}"
                )
            self._rules_by_lhs[rule.lhs].append(i)
        for v in self.variables:
            if not self._rules_by_lhs[v]:
                raise MissingRules(f"variable {v} has no rule")

    def rules_for(self, variable):
        """Indices (declaration order) of the rules rewriting `variable`."""
        return self._rules_by_lhs[variable]

    def is_terminal(self, sym):
        return sym in self.terminal_index

    def is_variable(self, sym):
        return sym in self.variable_index

    def rhs_variables(self, rule):
        return [s for s in rule.rhs if s in self.variable_index]

    def parikh_of(self, word):
        """Exponent vector of `word` with respect to the declared terminal
        order."""
        counts = [0] * len(self.terminals)
        for sym in word:
            counts[self.terminal_index[sym]] += 1
        return tuple(counts)

    def __eq__(self, other):
        return (
            isinstance(other, Grammar)
            and self.semiring == other.semiring
            and self.terminals == other.terminals
            and self.variables == other.variables
            and self.start == other.start
            and self.rules == other.rules
        )

    def __repr__(self):
        return (
            f"Grammar({self.semiring.keyword}, start={self.start}, "
            f"|Sigma|={len(self.terminals)}, |V|={len(self.variables)}, |R|={len(self.rules)})"
        )


def _strip_comment(line):
    pos = line.find("#")
    if pos >= 0:
        line = line[:pos]
    return line.strip()


def parse_grammar(text):
    """Parse a grammar document; raises GrammarFormatError with line numbers
    on malformed input."""
    semiring = None
    terminals = None
    variables = None
    start = None
    rules = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]

        if head == "semiring":
            if semiring is not None:
                raise GrammarFormatError("duplicate semiring line", lineno)
            if len(tokens) != 2:
                raise GrammarFormatError("expected: semiring Q|N|tropical", lineno)
            try:
                semiring = semiring_by_keyword(tokens[1])
            except GrammarFormatError as e:
                raise GrammarFormatError(str(e), lineno) from None
        elif head == "terminals":
            if terminals is not None:
                raise GrammarFormatError("duplicate terminals line", lineno)
            terminals = _parse_names(tokens[1:], "terminal", lineno)
        elif head == "variables":
            if variables is not None:
                raise GrammarFormatError("duplicate variables line", lineno)
            variables = _parse_names(tokens[1:], "variable", lineno)
        elif head == "start":
            if start is not None:
                raise GrammarFormatError("duplicate start line", lineno)
            if len(tokens) != 2:
                raise GrammarFormatError("expected: start <variable>", lineno)
            start = tokens[1]
        elif head == "rule":
            if semiring is None or terminals is None or variables is None or start is None:
                raise GrammarFormatError("rule line before semiring/terminals/variables/start", lineno)
            rules.append(_parse_rule(tokens[1:], semiring, lineno))
        else:
            raise GrammarFormatError(f"unrecognized line {head!r}", lineno)

    for missing, label in (
        (semiring, "semiring"),
        (terminals, "terminals"),
        (variables, "variables"),
        (start, "start"),
    ):
        if missing is None:
            raise GrammarFormatError(f"missing {label} line")

    return Grammar(semiring, terminals, variables, start, rules)


def _parse_names(tokens, kind, lineno):
    if not tokens:
        raise GrammarFormatError(f"empty {kind} declaration", lineno)
    for name in tokens:
        if not valid_symbol_name(name):
            raise GrammarFormatError(f"invalid {kind} name {name!r}", lineno)
    if len(set(tokens)) != len(tokens):
        raise GrammarFormatError(f"duplicate {kind} declaration", lineno)
    return list(tokens)


def _parse_rule(tokens, semiring, lineno):
    # tokens: <lhs> -> <sym>... : <weight>   (rhs may be the single token eps)
    if len(tokens) < 4 or tokens[1] != "->":
        raise GrammarFormatError("expected: rule <variable> -> <symbols|eps> : <weight>", lineno)
    if tokens[-2] != ":":
        raise GrammarFormatError("missing ':' before weight", lineno)
    lhs = tokens[0]
    body = tokens[2:-2]
    if not body:
        raise GrammarFormatError("empty rule body (write eps for the empty word)", lineno)
    if body == ["eps"]:
        rhs = ()
    elif "eps" in body:
        raise GrammarFormatError("eps must be the entire rule body", lineno)
    else:
        rhs = tuple(body)
    try:
        weight = semiring.parse(tokens[-1])
    except GrammarFormatError as e:
        raise GrammarFormatError(str(e), lineno) from None
    return Rule(lhs, rhs, weight)


def render_grammar(g):
    """Canonical document for `g`; parse_grammar(render_grammar(g)) == g."""
    lines = [
        f"semiring {g.semiring.keyword}",
        "terminals " + " ".join(g.terminals),
        "variables " + " ".join(g.variables),
        f"start {g.start}",
    ]
    for rule in g.rules:
        rhs = " ".join(rule.rhs) if rule.rhs else "eps"
        lines.append(f"rule {rule.lhs} -> {rhs} : {g.semiring.render(rule.weight)}")
    return "\n".join(lines) + "\n"


def load_grammar(path):
    """Parse the grammar document at `path`; a file that is not UTF-8
    text raises GrammarFormatError like any other malformed document."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise GrammarFormatError(
                f"{path}: not UTF-8 text (byte {err.start}: {err.reason})"
            ) from None
    return parse_grammar(text)
