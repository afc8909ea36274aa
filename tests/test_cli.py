import importlib
import subprocess
import sys

import pytest

from wcfg import (
    dimension_bound,
    grammar_series,
    is_cycle_free,
    load_grammar,
    parse_grammar,
    replay_derivation,
)
from wcfg.cli import main

from fixtures import GRAMMARS_DIR, fixture_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_reports_classification(capsys):
    code, out, err = run(capsys, "check", fixture_path("binary_tail.wcfg"))
    assert code == 0
    assert out.splitlines() == [
        "cycle_free: true",
        "nonexpansive: true",
        "degree: 1",
        "dimension_bound: 1",
    ]


def test_check_prints_witnesses(capsys):
    code, out, _ = run(capsys, "check", fixture_path("catalan.wcfg"))
    assert code == 0
    lines = out.splitlines()
    assert "nonexpansive: false" in lines
    assert any(line.startswith("expansive_witness: X duplicated by rule X -> a X X")
               for line in lines)
    assert "dimension_bound: expansive" in lines


def test_check_cyclic_grammar(tmp_path, capsys):
    doc = tmp_path / "cyc.wcfg"
    doc.write_text(
        "semiring Q\nterminals a\nvariables X Y\nstart X\n"
        "rule X -> Y : 1\nrule Y -> X : 1\nrule Y -> a : 1\n"
    )
    code, out, _ = run(capsys, "check", str(doc))
    assert code == 0
    assert "cycle_free: false" in out
    assert "cycle_witness: X -> Y -> X" in out


def deep_nullable_chain(path, n, semiring):
    """S -> S N0 with the nullable unit chain N0 -> N1 -> ... -> eps of
    length n: a cycle S => S whose witness derivation is n + 1 steps deep."""
    rules = ["S -> S N0", "S -> a"] + [f"N{i} -> N{i + 1}" for i in range(n - 1)]
    path.write_text(
        f"semiring {semiring}\nterminals a\n"
        f"variables S {' '.join(f'N{i}' for i in range(n))}\nstart S\n"
        + "".join(f"rule {r} : 1\n" for r in rules) + f"rule N{n - 1} -> eps : 1\n")
    return str(path)


def test_a_deep_nullable_chain_is_a_cycle_not_a_traceback(tmp_path, capsys):
    doc = deep_nullable_chain(tmp_path / "chain.wcfg", 1500, "N")
    code, out, _ = run(capsys, "check", doc)
    assert code == 0
    assert "cycle_witness: S -> S" in out.splitlines()
    g = load_grammar(doc)
    forms = replay_derivation(g, is_cycle_free(g)[1].derivation)
    assert (len(forms), forms[-1]) == (1502, ("S",))
    code, out, err = run(capsys, "series", doc, "--order", "3")
    assert (code, out) == (3, "")
    assert "not cycle-free" in err
    doc = deep_nullable_chain(tmp_path / "chain_q.wcfg", 1500, "Q")
    code, out, err = run(capsys, "decide", doc)
    assert (code, out) == (3, "")
    assert "not cycle-free" in err


def test_series_subcommand(capsys):
    code, out, _ = run(capsys, "series", fixture_path("catalan.wcfg"),
                       "--order", "8")
    assert code == 0
    assert out.strip() == "1*a + 1*a^3 + 2*a^5 + 5*a^7"


def test_series_rejects_cycles(tmp_path, capsys):
    doc = tmp_path / "cyc.wcfg"
    doc.write_text(
        "semiring Q\nterminals a\nvariables X\nstart X\n"
        "rule X -> X : 1\nrule X -> a : 1\n"
    )
    code, _, err = run(capsys, "series", str(doc), "--order", "3")
    assert code == 3
    assert "not cycle-free" in err


def test_regularize_to_stdout(capsys):
    code, out, _ = run(capsys, "regularize", fixture_path("binary_tail.wcfg"))
    assert code == 0
    head, body = out.split("semiring", 1)
    assert head.splitlines() == ["# k: 1", "# states: 7", "# rules: 11"]
    reg = parse_grammar("semiring" + body)
    assert reg.start == "<X1.1.m>"
    assert len(reg.rules) == 11


def test_regularize_to_file_keeps_series(tmp_path, capsys):
    out_path = tmp_path / "reg.wcfg"
    code, out, _ = run(capsys, "regularize", fixture_path("binary_tail.wcfg"),
                       "--out", str(out_path))
    assert code == 0
    assert "# states: 7" in out
    reg = load_grammar(str(out_path))
    g = load_grammar(fixture_path("binary_tail.wcfg"))
    assert grammar_series(reg, 7) == grammar_series(g, 7)


def test_regularize_k_override(capsys):
    code, out, _ = run(capsys, "regularize", fixture_path("binary_tail.wcfg"),
                       "--k", "2")
    assert code == 0
    assert out.splitlines()[0] == "# k: 2"


@pytest.mark.parametrize("extra", [(), ("--k", "2")])
def test_regularize_computes_the_dimension_bound_once(extra, capsys, monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return dimension_bound(g)

    # wcfg.regularize is also the name of a function, so look the modules up
    for module in ("wcfg.cli", "wcfg.regularize"):
        monkeypatch.setattr(importlib.import_module(module), "dimension_bound", counted)
    code, out, _ = run(capsys, "regularize", fixture_path("binary_tail.wcfg"), *extra)
    assert code == 0
    assert out.splitlines()[0] == f"# k: {extra[1] if extra else 1}"
    assert len(calls) == 1


def test_regularize_expansive_exit_code(capsys):
    code, _, err = run(capsys, "regularize", fixture_path("catalan.wcfg"))
    assert code == 4
    assert "expansive" in err


def test_decide_fails_verdict(capsys):
    code, out, _ = run(capsys, "decide", fixture_path("catalan.wcfg"))
    assert code == 0
    assert out.splitlines()[:2] == ["verdict: fails", "q: a*X^2 - X + a"]


def test_decide_emit_witness(tmp_path, capsys):
    out_path = tmp_path / "witness.wcfg"
    code, out, _ = run(capsys, "decide", fixture_path("binary_tail.wcfg"),
                       "--emit-witness", str(out_path))
    assert code == 0
    assert "verdict: holds" in out
    witness = load_grammar(str(out_path))
    g = load_grammar(fixture_path("binary_tail.wcfg"))
    assert grammar_series(witness, 8) == grammar_series(g, 8)


def test_decide_emit_witness_on_fails_warns(tmp_path, capsys):
    out_path = tmp_path / "witness.wcfg"
    code, _, err = run(capsys, "decide", fixture_path("catalan.wcfg"),
                       "--emit-witness", str(out_path))
    assert code == 0
    assert not out_path.exists()
    assert "no witness" in err


def test_decide_wrong_semiring_exit_code(capsys):
    code, _, err = run(capsys, "decide", fixture_path("tropical_paths.wcfg"))
    assert code == 5
    assert "semiring" in err


def test_equiv_equal(capsys, tmp_path):
    out_path = tmp_path / "reg.wcfg"
    run(capsys, "regularize", fixture_path("binary_tail.wcfg"),
        "--out", str(out_path))
    code, out, _ = run(capsys, "equiv", fixture_path("binary_tail.wcfg"),
                       str(out_path), "--order", "8")
    assert code == 0
    assert out.strip() == "equal"


def test_equiv_reports_least_difference(capsys):
    code, out, _ = run(capsys, "equiv", fixture_path("unary_double.wcfg"),
                       fixture_path("catalan.wcfg"), "--order", "4")
    assert code == 1
    assert out.startswith("differ at 1: 1 vs 0")


def test_equiv_alphabet_mismatch(capsys):
    code, _, err = run(capsys, "equiv", fixture_path("binary_tail.wcfg"),
                       fixture_path("unary_double.wcfg"), "--order", "4")
    assert code == 6
    assert "alphabet" in err


def test_equiv_semiring_mismatch(capsys):
    code, _, err = run(capsys, "equiv", fixture_path("catalan.wcfg"),
                       fixture_path("exponential_ambiguity.wcfg"),
                       "--order", "4")
    assert code == 6
    assert "semiring mismatch" in err


def test_equiv_is_declaration_order_insensitive(tmp_path, capsys):
    doc = tmp_path / "swapped.wcfg"
    doc.write_text(
        "semiring Q\nterminals b a\nvariables X1 X2\nstart X1\n"
        "rule X1 -> a X2 X2 : 1\nrule X2 -> b X2 : 1\nrule X2 -> a : 1\n"
    )
    code, out, _ = run(capsys, "equiv", fixture_path("binary_tail.wcfg"),
                       str(doc), "--order", "6")
    assert code == 0
    assert out.strip() == "equal"


def test_equiv_names_a_difference_in_the_first_terminal_order(tmp_path, capsys):
    # binary_tail.wcfg with b weighted 2: a^3/(1 - 2b)^2 against a^3/(1 - b)^2
    doc = tmp_path / "swapped.wcfg"
    doc.write_text(
        "semiring Q\nterminals b a\nvariables X1 X2\nstart X1\n"
        "rule X1 -> a X2 X2 : 1\nrule X2 -> b X2 : 2\nrule X2 -> a : 1\n"
    )
    code, out, _ = run(capsys, "equiv", fixture_path("binary_tail.wcfg"),
                       str(doc), "--order", "6")
    assert code == 1
    assert out == "differ at a^3*b: 2 vs 4\n"


def test_groebner_output(capsys):
    code, out, _ = run(capsys, "groebner", fixture_path("binary_tail.wcfg"))
    assert code == 0
    assert out.splitlines() == [
        "basis:",
        "X1 - (a^3)/(1 - 2*b + b^2)",
        "X2 - (a)/(1 - b)",
        "g: X1 - (a^3)/(1 - 2*b + b^2)",
    ]


def test_groebner_wrong_semiring(capsys):
    code, _, err = run(capsys, "groebner",
                       fixture_path("exponential_ambiguity.wcfg"))
    assert code == 5
    assert "semiring" in err


def test_parse_error_exit_code(tmp_path, capsys):
    doc = tmp_path / "bad.wcfg"
    doc.write_text("semiring Q\nterminals a\nvariables X\nstart X\n"
                   "rule X -> a\n")
    code, _, err = run(capsys, "check", str(doc))
    assert code == 2
    assert err.startswith("error: line 5:")


def test_non_utf8_document_is_a_format_error(tmp_path, capsys):
    doc = tmp_path / "latin1.wcfg"
    doc.write_bytes(b"semiring Q\nterminals a\xff\n")
    code, out, err = run(capsys, "check", str(doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "not UTF-8" in err


@pytest.mark.parametrize("argv", [
    ("series", "catalan.wcfg", "--order", "-1"),
    ("equiv", "catalan.wcfg", "catalan.wcfg", "--order", "-3"),
    ("series", "catalan.wcfg", "--order=-2"),
    ("regularize", "binary_tail.wcfg", "--k", "-1"),
])
def test_negative_order_is_a_usage_error(argv, capsys):
    argv = [fixture_path(a) if a.endswith(".wcfg") else a for a in argv]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be nonnegative" in captured.err


def test_order_zero_is_accepted(capsys):
    code, out, _ = run(capsys, "series", fixture_path("unary_double.wcfg"),
                       "--order", "0")
    assert code == 0
    assert out.strip() == "1"


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/path.wcfg")
    assert code == 2
    assert "error:" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wcfg", "series",
         fixture_path("unary_double.wcfg"), "--order", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 + 2*a + 4*a^2 + 8*a^3 + 16*a^4"


@pytest.mark.parametrize("name", sorted(
    path.name for path in GRAMMARS_DIR.glob("*.wcfg")
    if load_grammar(path).semiring.keyword == "Q"))
def test_decide_is_unchanged_under_python_optimize(name):
    # -O strips assert statements; no check that guards a verdict may be one
    runs = [subprocess.run([sys.executable, *flags, "-m", "wcfg", "decide", fixture_path(name)],
                           capture_output=True, text=True)
            for flags in ((), ("-O",))]
    assert (runs[1].returncode, runs[1].stdout) == (runs[0].returncode, runs[0].stdout)


def test_check_is_unchanged_under_python_optimize():
    # decide on the same document is covered by the test above
    runs = [subprocess.run([sys.executable, *flags, "-m", "wcfg", "check",
                            fixture_path("catalan_cancellation.wcfg")],
                           capture_output=True, text=True)
            for flags in ((), ("-O",))]
    assert runs[0].returncode == 0
    assert (runs[1].returncode, runs[1].stdout, runs[1].stderr) == \
        (runs[0].returncode, runs[0].stdout, runs[0].stderr)


def test_successive_calls_behave_like_fresh_processes(capsys):
    # the parser is built once per process; no call may leak an option
    # value or an error into the next
    calls = [
        ["regularize", fixture_path("binary_tail.wcfg"), "--k", "3"],
        ["regularize", fixture_path("binary_tail.wcfg")],
        ["regularize", fixture_path("catalan.wcfg")],
        ["check", fixture_path("binary_tail.wcfg")],
    ]
    codes = []
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "wcfg", *argv],
                               capture_output=True, text=True)
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(fresh.returncode)
    assert codes == [0, 0, 4, 0]
