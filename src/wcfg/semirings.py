"""Commutative semirings used as weight domains.

Three fixed instances are provided:

* RATIONALS  -- (Q, +, *, 0, 1), weights are fractions.Fraction
* NATURALS   -- (N, +, *, 0, 1), weights are nonnegative ints
* TROPICAL   -- (N + {inf}, min, +, inf, 0), weights are nonnegative ints
                or the float infinity

All weight values are plain Python objects (Fraction / int / inf) so they
hash, compare and render without wrappers.
"""

from fractions import Fraction

from .errors import GrammarFormatError

INF = float("inf")

_WEIGHT_RE_NOTE = "integer, or p/q for the rational semiring, or inf for the tropical semiring"


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


def _parse_rational(text):
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise GrammarFormatError(f"malformed rational weight {text!r}") from None
    return value


def _render_rational(value):
    return str(value)


def _parse_natural(text):
    try:
        value = int(text)
    except ValueError:
        raise GrammarFormatError(f"malformed natural weight {text!r} (expected a nonnegative integer)") from None
    if value < 0:
        raise GrammarFormatError(f"natural weight must be nonnegative, got {text}")
    return value


def _parse_tropical(text):
    if text == "inf":
        return INF
    try:
        value = int(text)
    except ValueError:
        raise GrammarFormatError(f"malformed tropical weight {text!r} (expected a nonnegative integer or inf)") from None
    if value < 0:
        raise GrammarFormatError(f"tropical weight must be nonnegative, got {text}")
    return value


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
    add=lambda x, y: x + y,
    mul=lambda x, y: x * y,
    parse=_parse_rational,
    render=_render_rational,
    check=_check_rational,
)

NATURALS = Semiring(
    name="naturals",
    keyword="N",
    zero=0,
    one=1,
    add=lambda x, y: x + y,
    mul=lambda x, y: x * y,
    parse=_parse_natural,
    render=lambda v: str(v),
    check=_check_natural,
)

TROPICAL = Semiring(
    name="tropical",
    keyword="tropical",
    zero=INF,
    one=0,
    add=min,
    mul=lambda x, y: x + y,
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
