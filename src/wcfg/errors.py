"""Exception types shared across the toolkit.

Every error raised on a user-visible path derives from WcfgError so the
command-line driver can map failures to diagnostics and exit codes.
"""


class WcfgError(Exception):
    """Base class for all toolkit errors."""


class GrammarFormatError(WcfgError):
    """A grammar document is malformed (syntax, declarations, weights)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MissingRules(GrammarFormatError):
    """A declared variable has no rule."""


class WrongSemiring(WcfgError):
    """An operation requires a different weight semiring than the grammar's."""


class NotCycleFree(WcfgError):
    """The grammar admits a derivation X =>+ X, which the operation forbids.

    ``cycle`` is a replayable path such as A -> B -> A, or, with
    ``path=False``, the variables found on or behind a cycle, which are
    rendered as a set."""

    def __init__(self, cycle, path=True):
        cycle = tuple(cycle)
        if path:
            detail = " -> ".join(cycle)
        else:
            detail = "variables on or behind a cycle: " + ", ".join(cycle)
        super().__init__("grammar is not cycle-free: " + detail)
        self.cycle = cycle


class ExpansiveGrammar(WcfgError):
    """The grammar can pump two copies of some variable, so no finite
    dimension bound exists."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class KTooSmall(WcfgError):
    """Requested dimension level is below the grammar's dimension bound."""


class EnumerationBudgetExceeded(WcfgError):
    """Tree enumeration exceeded its node budget."""


class NotDivisible(WcfgError):
    """Exact polynomial division left a remainder."""


class DivisionByZeroPolynomial(WcfgError):
    """Polynomial division or gcd was asked to divide by zero."""


class ZeroDenominator(WcfgError):
    """A rational function was built with denominator zero."""


class ZeroIdeal(WcfgError):
    """A Groebner basis was asked for generators that are all zero."""


class NotUnivariate(WcfgError):
    """A system polynomial involves a variable other than the start
    variable where a univariate one is required."""


class NoUnivariateElement(WcfgError):
    """Internal consistency failure: the reduced elimination basis contains no
    polynomial in the start variable alone."""


class DegenerateLeadingTerm(WcfgError):
    """A linear equation c*X = d has a coefficient c with a zero constant
    term, so d/c has no power series to solve for the start variable."""


class IterationCapExceeded(WcfgError):
    """Series discrimination found no candidate factor, or more than
    one, vanishing at the order its degree bound guarantees: the
    candidates were not as its precondition requires."""


class SymbolMismatch(WcfgError):
    """Two polynomials over different symbol lists, two system
    polynomials over different terminals or grammar variables, or two
    series over different symbol lists or semirings, met in one
    operation."""


class BrokenDerivation(WcfgError):
    """A lowest-annotation-first derivation broke its index bound or did
    not reproduce its tree's yield, so the grammar is not the annotated
    grammar the tree belongs to."""
