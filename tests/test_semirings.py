from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wcfg import GrammarFormatError
from wcfg.semirings import INF, NATURALS, RATIONALS, SEMIRINGS, TROPICAL, semiring_by_keyword


def test_lookup_by_keyword():
    assert semiring_by_keyword("Q") is RATIONALS
    assert semiring_by_keyword("N") is NATURALS
    assert semiring_by_keyword("tropical") is TROPICAL
    assert set(SEMIRINGS) == {"Q", "N", "tropical"}
    with pytest.raises(GrammarFormatError):
        semiring_by_keyword("R")


def test_constants():
    assert RATIONALS.zero == Fraction(0) and RATIONALS.one == Fraction(1)
    assert NATURALS.zero == 0 and NATURALS.one == 1
    assert TROPICAL.zero == INF and TROPICAL.one == 0


def test_parse_render_round_trip():
    assert RATIONALS.parse("-3/6") == Fraction(-1, 2)
    assert RATIONALS.render(Fraction(-1, 2)) == "-1/2"
    assert NATURALS.parse("7") == 7
    assert TROPICAL.parse("inf") == INF
    assert TROPICAL.render(INF) == "inf"
    assert TROPICAL.render(3) == "3"


def test_parse_rejects_malformed_weights():
    with pytest.raises(GrammarFormatError):
        RATIONALS.parse("1/0")
    with pytest.raises(GrammarFormatError):
        RATIONALS.parse("x")
    with pytest.raises(GrammarFormatError):
        NATURALS.parse("-1")
    with pytest.raises(GrammarFormatError):
        NATURALS.parse("1/2")
    with pytest.raises(GrammarFormatError):
        TROPICAL.parse("-2")


# weights are ASCII digits: Q -?[0-9]+(/[0-9]+)?, N [0-9]+, tropical
# [0-9]+ or inf; int() alone would read 1_0, +2 and other digits too
_ODD_SPELLINGS = ["1_0", "+2", "\u0663", "\uff15", " 3", "3 ", ""]


@pytest.mark.parametrize("semiring,text", [
    (RATIONALS, "1/-2"), (RATIONALS, "1/+2"), (RATIONALS, "1/2/3"), (RATIONALS, "-"),
    (RATIONALS, "inf"), (NATURALS, "-0"), (NATURALS, "inf"), (TROPICAL, "1/2"),
    (TROPICAL, "Inf"),
] + [(s, text) for s in (RATIONALS, NATURALS, TROPICAL) for text in _ODD_SPELLINGS])
def test_parse_rejects_weights_outside_ascii_digits(semiring, text):
    with pytest.raises(GrammarFormatError):
        semiring.parse(text)


def test_parse_reads_ascii_digits():
    assert RATIONALS.parse("-0") == 0
    assert RATIONALS.parse("007/014") == Fraction(1, 2)
    assert isinstance(RATIONALS.parse("5"), Fraction)
    assert NATURALS.parse("010") == 10
    assert TROPICAL.parse("0") == 0


def test_check_accepts_own_values_only():
    assert RATIONALS.check(Fraction(1, 3)) and RATIONALS.check(-2)
    assert not RATIONALS.check(0.5)
    assert NATURALS.check(0) and not NATURALS.check(-1)
    assert not NATURALS.check(True)
    assert TROPICAL.check(INF) and TROPICAL.check(5)
    assert not TROPICAL.check(-1)


def test_equality_is_by_keyword():
    assert RATIONALS == semiring_by_keyword("Q")
    assert RATIONALS != NATURALS
    assert len({RATIONALS, NATURALS, TROPICAL}) == 3


_rationals = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=10),
)
_naturals = st.integers(min_value=0, max_value=50)
_tropicals = st.one_of(st.integers(min_value=0, max_value=50), st.just(INF))


@pytest.mark.parametrize(
    "semiring,values",
    [(RATIONALS, _rationals), (NATURALS, _naturals), (TROPICAL, _tropicals)],
    ids=["Q", "N", "tropical"],
)
def test_semiring_axioms(semiring, values):
    @given(x=values, y=values, z=values)
    def run(x, y, z):
        add, mul = semiring.add, semiring.mul
        zero, one = semiring.zero, semiring.one
        assert add(x, y) == add(y, x)
        assert mul(x, y) == mul(y, x)
        assert add(add(x, y), z) == add(x, add(y, z))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert add(x, zero) == x
        assert mul(x, one) == x
        assert mul(x, zero) == zero
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))

    run()
