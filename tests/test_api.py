"""The package namespace, its __all__ and the README agree on the public
API."""

import argparse
import ast
import re
import sys
import types
from pathlib import Path

import wcfg
from wcfg import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def documented_names():
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    spans = " ".join(re.findall(r"`([^`]+)`", text))
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", spans))


def test_all_lists_exactly_the_public_names():
    bound = {name for name, value in vars(wcfg).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(wcfg.__all__) == bound
    assert len(wcfg.__all__) == len(set(wcfg.__all__))


def test_every_public_name_is_in_the_readme():
    assert sorted(set(wcfg.__all__) - documented_names()) == []


def test_every_readme_code_name_is_in_the_package():
    # the other direction: a README entry for a name the package no
    # longer has is stale.  Code names are the snake_case and CamelCase
    # words; single letters and plain words are prose.
    source = " ".join(p.read_text(encoding="utf-8") for p in (ROOT / "src" / "wcfg").glob("*.py"))
    words = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", source))
    code = {n for n in documented_names()
            if "_" in n.strip("_") or re.fullmatch(r"[A-Z][a-z][A-Za-z0-9_]*", n)}
    assert sorted(code - words) == []


def test_the_package_has_no_assert_statements():
    # python -O strips assert statements, so an invariant that guards a
    # result must raise a typed WcfgError instead
    for path in sorted((ROOT / "src" / "wcfg").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)], path.name


def test_the_package_imports_only_the_standard_library():
    # the library stays stdlib-only: every absolute import names a
    # standard module, and the relative ones stay inside the package
    for path in sorted((ROOT / "src" / "wcfg").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
        names += [node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and not node.level]
        outside = {n for n in names if n.split(".")[0] not in sys.stdlib_module_names}
        assert not outside, (path.name, sorted(outside))


def readme_cli_options():
    """{subcommand: set of --options} from the README's Command line
    synopsis, comments left out."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, flags=re.S).group(1)
    out = {}
    for line in block.splitlines():
        words = line.split("#", 1)[0].split()
        if words[:1] == ["wcfg"]:
            out[words[1]] = set(re.findall(r"--[a-z][a-z-]*", " ".join(words)))
    return out


def test_the_readme_synopsis_lists_exactly_the_cli_options():
    subparsers = next(action for action in cli.PARSER._actions
                      if isinstance(action, argparse._SubParsersAction))
    parsed = {name: {option for action in sub._actions for option in action.option_strings}
              - {"-h", "--help"} for name, sub in subparsers.choices.items()}
    assert readme_cli_options() == parsed
