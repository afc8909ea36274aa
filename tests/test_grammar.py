from fractions import Fraction

import pytest

from wcfg import GrammarFormatError, load_grammar, parse_grammar, render_grammar
from wcfg.errors import MissingRules
from wcfg.grammar import Grammar, Rule, valid_symbol_name
from wcfg.semirings import NATURALS, RATIONALS

from fixtures import fixture_path, load_fixture

DOC = """\
# weights are rational
semiring Q
terminals a b
variables X1 X2
start X1
rule X1 -> a X2 X2 : 1
rule X2 -> b X2 : 1
rule X2 -> a : 1
"""


def test_parse_basic_document():
    g = parse_grammar(DOC)
    assert g.semiring is RATIONALS
    assert g.terminals == ("a", "b")
    assert g.variables == ("X1", "X2")
    assert g.start == "X1"
    assert g.rules[0] == Rule("X1", ("a", "X2", "X2"), Fraction(1))


def test_render_parse_round_trip():
    g = parse_grammar(DOC)
    assert parse_grammar(render_grammar(g)) == g


def test_round_trip_all_fixtures():
    for name in (
        "catalan.wcfg",
        "catalan_cancellation.wcfg",
        "binary_tail.wcfg",
        "two_letter_star.wcfg",
        "two_letter_star_cfl.wcfg",
        "unary_double.wcfg",
        "exponential_ambiguity.wcfg",
        "tropical_paths.wcfg",
    ):
        g = load_fixture(name)
        assert parse_grammar(render_grammar(g)) == g


def test_load_grammar_reads_files():
    g = load_grammar(fixture_path("catalan.wcfg"))
    assert g.start in g.variables


def test_eps_rule_and_comments():
    g = parse_grammar(
        "semiring N\n"
        "terminals a\n"
        "variables X\n"
        "start X\n"
        "rule X -> eps : 2   # the empty word\n"
        "rule X -> a X : 1\n"
    )
    assert g.rules[0].rhs == ()
    assert g.rules[0].weight == 2


def test_rule_order_is_preserved():
    g = parse_grammar(DOC)
    assert [r.rhs for r in g.rules] == [("a", "X2", "X2"), ("b", "X2"), ("a",)]


def test_rules_for_returns_indices():
    g = parse_grammar(DOC)
    assert list(g.rules_for("X1")) == [0]
    assert list(g.rules_for("X2")) == [1, 2]


def test_parikh_of_counts_letters():
    g = parse_grammar(DOC)
    assert g.parikh_of(("a", "b", "a")) == (2, 1)
    assert g.parikh_of(()) == (0, 0)


@pytest.mark.parametrize(
    "mutation,message",
    [
        ("semiring R", "semiring"),
        ("rule X1 -> a Y : 1", "undeclared symbol 'Y'"),
        ("rule X3 -> a : 1", "undeclared variable 'X3'"),
        ("rule X1 -> a : x", "malformed rational"),
        ("rule X1 -> : 1", "empty rule body"),
        ("rule X1 -> a eps : 1", "eps must be the entire rule body"),
        ("rule X1 -> a 1", "missing ':'"),
        ("start X9", "not a declared variable"),
    ],
)
def test_malformed_documents(mutation, message):
    if mutation.startswith("semiring"):
        text = DOC.replace("semiring Q", mutation)
    elif mutation.startswith("start"):
        text = DOC.replace("start X1", mutation)
    else:
        text = DOC + mutation + "\n"
    with pytest.raises(GrammarFormatError, match=message):
        parse_grammar(text)


def test_parse_error_carries_line_number():
    text = DOC + "rule X1 -> a\n"
    with pytest.raises(GrammarFormatError) as err:
        parse_grammar(text)
    assert str(err.value).startswith("line 9:")


def test_missing_sections_are_rejected():
    with pytest.raises(GrammarFormatError, match="missing"):
        parse_grammar("semiring Q\nterminals a\nvariables X\n")


def test_duplicate_sections_are_rejected():
    with pytest.raises(GrammarFormatError, match="duplicate semiring"):
        parse_grammar("semiring Q\n" + DOC)


def test_duplicate_rule_bodies_are_rejected():
    with pytest.raises(GrammarFormatError, match="duplicate rule"):
        parse_grammar(DOC + "rule X2 -> a : 2\n")


def test_terminal_variable_overlap_is_rejected():
    with pytest.raises(GrammarFormatError, match="both terminal and variable"):
        Grammar(NATURALS, ("a",), ("a",), "a", (Rule("a", (), 1),))


def test_every_variable_needs_a_rule():
    with pytest.raises(MissingRules, match="X2 has no rule"):
        parse_grammar(
            "semiring Q\nterminals a\nvariables X1 X2\nstart X1\nrule X1 -> a : 1\n"
        )


def test_weight_domain_is_checked():
    with pytest.raises(GrammarFormatError, match="nonnegative"):
        parse_grammar(
            "semiring N\nterminals a\nvariables X\nstart X\nrule X -> a : -1\n"
        )
    with pytest.raises(GrammarFormatError):
        Grammar(NATURALS, ("a",), ("X",), "X", (Rule("X", ("a",), Fraction(1, 2)),))


def test_reserved_words_are_not_names():
    for word in ("eps", "rule", "start", "semiring", "terminals", "variables"):
        assert not valid_symbol_name(word)
        with pytest.raises(GrammarFormatError):
            parse_grammar(DOC.replace("terminals a b", f"terminals {word} b"))


def test_symbol_name_shapes():
    assert valid_symbol_name("abc_2")
    assert valid_symbol_name("X2.0.e")          # annotated variable
    assert valid_symbol_name("<X2.0.e|X1.1.m>")  # regular-state variable
    assert not valid_symbol_name("2x")
    assert not valid_symbol_name("a-b")
    assert not valid_symbol_name("<X2>")


def test_grammar_equality_is_structural():
    g1 = parse_grammar(DOC)
    g2 = parse_grammar(DOC)
    assert g1 == g2
    g3 = parse_grammar(DOC.replace("rule X2 -> a : 1", "rule X2 -> a : 2"))
    assert g1 != g3
