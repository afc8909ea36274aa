"""Commutative semirings used as weight domains.

Three fixed instances are provided:

* RATIONALS  -- (Q, +, *, 0, 1), weights are fractions.Fraction
* NATURALS   -- (N, +, *, 0, 1), weights are nonnegative ints
* TROPICAL   -- (N + {inf}, min, +, inf, 0), weights are nonnegative ints
                or the float infinity

All weight values are plain Python objects (Fraction / int / inf) so they
hash, compare and render without wrappers.
"""

import operator
import re
from fractions import Fraction

from .errors import GrammarFormatError

INF = float("inf")


class Semiring:
    """A commutative semiring together with weight parsing/printing.

    The arithmetic is exposed as `add`/`mul` plus the constants `zero` and
    `one`; `parse(text)` and `render(value)` fix the concrete syntax used in
    grammar documents.
    """

    def __init__(self, name, keyword, zero, one, add, mul, parse, render, check):
        self.name = name
        self.keyword = keyword
        self.zero = zero
        self.one = one
        self.add = add
        self.mul = mul
        self.parse = parse
        self.render = render
        self.check = check

    def __repr__(self):
        return f"Semiring({self.name})"

    def __eq__(self, other):
        return isinstance(other, Semiring) and self.keyword == other.keyword

    def __hash__(self):
        return hash(self.keyword)

    def is_zero(self, value):
        return value == self.zero


# weights are spelled in ASCII digits only, whatever else int() accepts
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_INTEGER = re.compile(r"-?[0-9]+")


def _parse_rational(text):
    match = _RATIONAL.fullmatch(text)
    if match is None or (match[2] is not None and int(match[2]) == 0):
        raise GrammarFormatError(f"malformed rational weight {text!r}")
    num, den = match.groups()
    return Fraction(int(num)) if den is None else Fraction(int(num), int(den))


def _parse_count(kind, expected, text):
    """A nonnegative integer, [0-9]+; a negative one is named as such."""
    if _INTEGER.fullmatch(text) is None:
        raise GrammarFormatError(f"malformed {kind} weight {text!r} (expected {expected})")
    if text.startswith("-"):
        raise GrammarFormatError(f"{kind} weight must be nonnegative, got {text}")
    return int(text)


def _parse_natural(text):
    return _parse_count("natural", "a nonnegative integer", text)


def _parse_tropical(text):
    if text == "inf":
        return INF
    return _parse_count("tropical", "a nonnegative integer or inf", text)


def _render_tropical(value):
    return "inf" if value == INF else str(value)


def _check_rational(value):
    return isinstance(value, (Fraction, int)) and not isinstance(value, bool)


def _check_natural(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_tropical(value):
    if value == INF:
        return True
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


RATIONALS = Semiring(
    name="rationals",
    keyword="Q",
    zero=Fraction(0),
    one=Fraction(1),
    add=operator.add,
    mul=operator.mul,
    parse=_parse_rational,
    render=str,
    check=_check_rational,
)

NATURALS = Semiring(
    name="naturals",
    keyword="N",
    zero=0,
    one=1,
    add=operator.add,
    mul=operator.mul,
    parse=_parse_natural,
    render=str,
    check=_check_natural,
)

TROPICAL = Semiring(
    name="tropical",
    keyword="tropical",
    zero=INF,
    one=0,
    add=min,
    mul=operator.add,
    parse=_parse_tropical,
    render=_render_tropical,
    check=_check_tropical,
)

SEMIRINGS = {s.keyword: s for s in (RATIONALS, NATURALS, TROPICAL)}


def semiring_by_keyword(keyword):
    try:
        return SEMIRINGS[keyword]
    except KeyError:
        known = ", ".join(sorted(SEMIRINGS))
        raise GrammarFormatError(f"unknown semiring {keyword!r} (known: {known})") from None
