"""The benchmark tracer wraps wcfg module attributes by name, so every
name it lists must exist; a rename inside the package would otherwise
break only the traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module, dotted):
    owner = importlib.import_module(f"wcfg.{module}")
    for part in dotted.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


def test_every_traced_attribute_resolves():
    tracer = load_tracer()
    wanted = [(mod, attr) for mod, attr, _, _ in tracer.SPANS]
    wanted += [(mod, attr) for mod, attr, _ in tracer.COUNTS]
    wanted.append(("polynomials", "poly_gcd"))  # wrapped by Tracer.install
    missing = [f"wcfg.{mod}.{attr}" for mod, attr in wanted
               if not callable(resolve(mod, attr))]
    assert missing == []
    assert set(tracer.LAYERS) >= {mod for mod, _ in wanted}
