"""Acceptance suite: eleven end-to-end criteria, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every criterion is a self-contained test; a failure prints its FAIL line
and then surfaces the underlying assertion.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from wcfg import (
    algebraic_system,
    at_most_k_grammar,
    decide_parikh,
    degree,
    derivation_index,
    dimension_bound,
    enumerate_trees,
    grammar_series,
    groebner_basis,
    is_cycle_free,
    is_nonexpansive,
    ldf_derivation,
    load_grammar,
    parikh_series_bruteforce,
    parse_grammar,
    poly_reduce,
    regularize,
    render_report,
    render_system_polynomial,
    replay_derivation,
    system_polynomials,
    word_weight_map,
)
from wcfg.groebner import reduce_basis, s_polynomial

from fixtures import fixture_path, load_fixture
from grammar_gen import random_nonexpansive_family
from system_gen import random_system

CATALAN_NUMBERS = [1, 1, 2, 5, 14, 42, 132, 429]


@contextmanager
def reported(number, description):
    try:
        yield
    except BaseException:
        print("FAIL criterion %d: %s" % (number, description))
        raise
    print("PASS criterion %d: %s" % (number, description))


def report_lines(report):
    pairs = {}
    for line in render_report(report).splitlines():
        if not line.startswith(" ") and ": " in line:
            key, value = line.split(": ", 1)
            pairs[key] = value
    return pairs


def witness_rules(report):
    return {(r.rhs, r.weight) for r in report.witness.rules}


def test_criterion_01_catalan_series_coefficients():
    with reported(1, "catalan series at order 15 matches the Catalan numbers"):
        start = time.perf_counter()
        series = grammar_series(load_fixture("catalan.wcfg"), 15)
        elapsed = time.perf_counter() - start
        for n, c in enumerate(CATALAN_NUMBERS):
            assert series.coefficient((2 * n + 1,)) == c
        for n in range(0, 16, 2):
            assert series.coefficient((n,)) == 0
        assert elapsed < 1.0


def test_criterion_02_catalan_decide_fails():
    with reported(2, "catalan verdict fails with quadratic annihilator"):
        start = time.perf_counter()
        report = decide_parikh(load_fixture("catalan.wcfg"))
        elapsed = time.perf_counter() - start
        lines = report_lines(report)
        assert lines["verdict"] == "fails"
        assert lines["q"] == "a*X^2 - X + a"
        assert lines["basis_g"] == "X^2 - (1/a)*X + 1"
        assert report.witness is None
        assert elapsed < 1.0


def test_criterion_03_two_letter_star_cfl_witness():
    with reported(3, "two_letter_star_cfl verdict holds with a faithful"
                     " 3-rule witness"):
        g = load_fixture("two_letter_star_cfl.wcfg")
        report = decide_parikh(g)
        lines = report_lines(report)
        assert lines["verdict"] == "holds"
        assert lines["q"] == "(1 - a - abar)*X2 - 1"
        assert witness_rules(report) == {
            ((), Fraction(1)),
            (("a", report.witness.start), Fraction(1)),
            (("abar", report.witness.start), Fraction(1)),
        }
        assert grammar_series(report.witness, 8) == grammar_series(g, 8)


def test_criterion_04_binary_tail_decide_and_basis():
    with reported(4, "binary_tail verdict holds; witness and basis match"):
        g = load_fixture("binary_tail.wcfg")
        start = time.perf_counter()
        report = decide_parikh(g)
        basis = groebner_basis(system_polynomials(algebraic_system(g)))
        elapsed = time.perf_counter() - start
        lines = report_lines(report)
        assert lines["verdict"] == "holds"
        assert lines["q"] == "(1 - 2*b + b^2)*X1 - a^3"
        s = report.witness.start
        assert witness_rules(report) == {
            (("a", "a", "a"), Fraction(1)),
            (("b", s), Fraction(2)),
            (("b", "b", s), Fraction(-1)),
        }
        rendered = {render_system_polynomial(p) for p in basis}
        assert "X1 - (a^3)/(1 - 2*b + b^2)" in rendered
        assert "X2 - (a)/(1 - b)" in rendered
        assert grammar_series(report.witness, 8) == grammar_series(g, 8)
        assert elapsed < 1.0


def test_criterion_05_unary_double_decide_and_series():
    with reported(5, "unary_double verdict holds; series is sum of 2^n a^n"):
        g = load_fixture("unary_double.wcfg")
        report = decide_parikh(g)
        lines = report_lines(report)
        assert lines["verdict"] == "holds"
        assert lines["q"] == "(1 - 2*a)*X - 1"
        s = report.witness.start
        assert witness_rules(report) == {
            ((), Fraction(1)),
            (("a", s), Fraction(2)),
        }
        basis = groebner_basis(system_polynomials(algebraic_system(g)))
        rendered = {render_system_polynomial(p) for p in basis}
        assert "X - (1)/(1 - 2*a)" in rendered
        series = grammar_series(g, 10)
        for n in range(11):
            assert series.coefficient((n,)) == 2 ** n
        assert grammar_series(report.witness, 10) == series


def test_criterion_06_classification_with_replayable_witnesses():
    with reported(6, "classification verdicts carry replayable witnesses"):
        for name, variable in (("catalan.wcfg", "X"),
                               ("unary_double.wcfg", "D")):
            g = load_fixture(name)
            ok, witness = is_nonexpansive(g)
            assert not ok
            assert witness.variable == variable
            forms = replay_derivation(g, witness.derivation)
            assert forms[0] == (variable,)
            assert forms[-1].count(variable) >= 2
        for name in ("binary_tail.wcfg", "exponential_ambiguity.wcfg"):
            ok, witness = is_nonexpansive(load_fixture(name))
            assert ok and witness is None
        ok, witness = is_cycle_free(load_fixture("two_letter_star_cfl.wcfg"))
        assert ok and witness is None
        cyclic = parse_grammar(
            "semiring Q\nterminals a\nvariables X Y\nstart X\n"
            "rule X -> Y : 1\nrule Y -> X : 1\nrule Y -> a : 1\n")
        ok, witness = is_cycle_free(cyclic)
        assert not ok
        forms = replay_derivation(cyclic, witness.derivation)
        assert forms[0] == (witness.variables[0],)
        assert forms[-1] == (witness.variables[0],)


def test_criterion_07_regular_form_preserves_series_and_language():
    with reported(7, "regular form matches 51 grammars x 3 semirings on"
                     " series (order 6) and words (length 8)"):
        start = time.perf_counter()
        bt = load_fixture("binary_tail.wcfg")
        batches = [{"Q": bt}] + random_nonexpansive_family(20260822, 50)
        checked = 0
        for family in batches:
            for g in family.values():
                reg = regularize(g)
                assert grammar_series(g, 6) == grammar_series(reg, 6)
                brute = parikh_series_bruteforce(g, 6)
                assert brute == parikh_series_bruteforce(reg, 6)
                assert brute == grammar_series(g, 6)
                annotated = at_most_k_grammar(g, dimension_bound(g))
                assert word_weight_map(g, 8) == word_weight_map(annotated, 8)
                checked += 1
        elapsed = time.perf_counter() - start
        assert checked >= 51
        assert elapsed < 120.0


def test_criterion_08_iteration_agrees_with_enumeration():
    with reported(8, "fixed-point iteration equals tree enumeration on every"
                     " fixture up to order 6"):
        fixture_names = (
            "catalan.wcfg", "catalan_cancellation.wcfg", "binary_tail.wcfg",
            "two_letter_star.wcfg", "two_letter_star_cfl.wcfg",
            "unary_double.wcfg", "exponential_ambiguity.wcfg",
            "tropical_paths.wcfg",
        )
        for name in fixture_names:
            g = load_fixture(name)
            for order in range(7):
                assert grammar_series(g, order) == \
                    parikh_series_bruteforce(g, order), (name, order)


def test_criterion_09_ldf_derivations_respect_the_width_bound():
    with reported(9, "low-dimension-first derivations never exceed index"
                     " k*m+1"):
        nonexpansive_fixtures = (
            "binary_tail.wcfg", "two_letter_star.wcfg",
            "exponential_ambiguity.wcfg", "tropical_paths.wcfg",
        )
        grammars = [load_fixture(name) for name in nonexpansive_fixtures]
        grammars += [fam["N"] for fam in random_nonexpansive_family(7, 10)]
        checked = 0
        for g in grammars:
            k = dimension_bound(g)
            ann = at_most_k_grammar(g, k)
            m = degree(ann)
            for tree in enumerate_trees(ann, max_terminals=6):
                d = ldf_derivation(ann, tree)
                assert derivation_index(ann, d) <= k * m + 1
                checked += 1
        assert checked > 100


def test_criterion_10_groebner_bases_on_random_systems():
    with reported(10, "100 random systems: generators and S-polynomials"
                      " reduce to zero; basis is presentation-invariant"):
        rng = random.Random(1009)
        for trial in range(100):
            gens = random_system(rng)
            basis = reduce_basis(groebner_basis(gens))
            for gen in gens:
                assert poly_reduce(gen, basis).is_zero()
            for i, f in enumerate(basis):
                for h in basis[i + 1:]:
                    assert poly_reduce(s_polynomial(f, h), basis).is_zero()
            rendered = {render_system_polynomial(p) for p in basis}
            shuffled = list(gens)
            rng.shuffle(shuffled)
            scale = rng.choice([2, -3, Fraction(1, 2)])
            scaled = [p.scale(scale) for p in shuffled]
            assert {render_system_polynomial(p)
                    for p in reduce_basis(groebner_basis(scaled))} == rendered


def test_criterion_11_decider_holds_on_random_nonexpansive_grammars():
    with reported(11, "verdict holds with a faithful witness on 50 random"
                      " rational-weighted grammars"):
        for family in random_nonexpansive_family(20260822, 50):
            g = family["Q"]
            report = decide_parikh(g)
            assert report.verdict == "holds"
            assert report.discrimination_order == 0
            reference = grammar_series(regularize(g), 8)
            assert grammar_series(report.witness, 8) == reference
            assert grammar_series(g, 8) == reference
