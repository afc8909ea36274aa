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


class NonRegularSystem(WcfgError):
    """An algebraic system has a monomial with more than one variable factor,
    so it does not describe a regular (one-state-at-a-time) grammar."""


class NotDivisible(WcfgError):
    """Exact polynomial division left a remainder."""


class DivisionByZeroPolynomial(WcfgError):
    """Polynomial division or gcd was asked to divide by zero."""


class ZeroDenominator(WcfgError):
    """A rational function was built with denominator zero."""


class NonUnitDenominatorAtOrigin(WcfgError):
    """Series expansion needs a denominator with a nonzero constant term."""


class NoUnivariateElement(WcfgError):
    """Internal consistency failure: the reduced elimination basis contains no
    polynomial in the start variable alone."""


class DegenerateLeadingTerm(WcfgError):
    """A linear annihilating polynomial has a zero constant part where a unit
    is required to solve for the start variable."""


class IterationCapExceeded(WcfgError):
    """Series discrimination failed to separate candidate factors within the
    iteration cap."""


class SymbolMismatch(WcfgError):
    """Two polynomials over different symbol lists, two system
    polynomials over different terminals or grammar variables, or two
    series over different symbol lists or semirings, met in one
    operation."""


class PrecisionExceeded(WcfgError):
    """A truncated series was asked for terms above the order it was
    truncated at, which it does not know."""


class BrokenDerivation(WcfgError):
    """A lowest-annotation-first derivation broke its index bound or did
    not reproduce its tree's yield, so the grammar is not the annotated
    grammar the tree belongs to."""
