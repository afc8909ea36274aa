"""The package namespace, its __all__ and the README agree on the public
API."""

import re
import types
from pathlib import Path

import wcfg

README = Path(__file__).resolve().parent.parent / "README.md"


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
