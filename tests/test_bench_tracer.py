"""The benchmark tracer wraps wcfg module attributes by name, so every
name it lists must exist and be called through; a rename inside the
package, or a call that bypasses the module global, would otherwise
break or silently zero a layer of the traced benchmark run."""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

from wcfg import cli

from fixtures import fixture_path

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


def test_decide_calls_every_traced_decide_attribute():
    # catalan_cancellation reaches reconstruction and discrimination
    tracer = load_tracer()
    trace = tracer.Tracer()
    trace.install({m: importlib.import_module(f"wcfg.{m}") for m in tracer.LAYERS})
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["decide", fixture_path("catalan_cancellation.wcfg")])
    finally:
        trace.uninstall()
    assert code == 0 and out.getvalue().startswith("verdict: holds")
    below = [False] * len(trace.spans)  # inside decide_parikh's span
    for sid, parent, *_ in trace.spans:
        if parent >= 0:
            below[sid] = below[parent] or trace.spans[parent][2] == "decide.decide_parikh"
    seen = {rec[2] for rec in trace.spans if below[rec[0]]}
    wanted = {name for mod, _, name, _ in tracer.SPANS if mod == "decide"}
    assert sorted(wanted - seen) == []


def test_series_runs_the_sweep_under_the_traced_name():
    # series.approximate_s reads the span of series.approximate below
    # series.grammar_series, so the engine must stay behind that name
    tracer = load_tracer()
    trace = tracer.Tracer()
    trace.install({m: importlib.import_module(f"wcfg.{m}") for m in tracer.LAYERS})
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["series", fixture_path("two_letter_star_cfl.wcfg"),
                             "--order", "6"])
    finally:
        trace.uninstall()
    assert code == 0 and out.getvalue().startswith("1 + ")
    names = {rec[0]: rec[2] for rec in trace.spans}
    below = [names[parent] for _, parent, name, *_ in trace.spans
             if name == "series.approximate" and parent >= 0]
    assert below == ["series.grammar_series"]


def test_regularize_runs_its_stages_under_the_traced_names():
    # regularize.closure_s is the self time of regularize.regularize, so
    # annotation, classification and the degree must stay traced below it
    tracer = load_tracer()
    trace = tracer.Tracer()
    trace.install({m: importlib.import_module(f"wcfg.{m}") for m in tracer.LAYERS})
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["regularize", fixture_path("binary_tail.wcfg")])
    finally:
        trace.uninstall()
    assert code == 0 and "# states: 7\n" in out.getvalue()
    names = {rec[0]: rec[2] for rec in trace.spans}
    below = {name for _, parent, name, *_ in trace.spans
             if parent >= 0 and names[parent] == "regularize.regularize"}
    assert below >= {"regularize.annotate", "analysis.classify", "analysis.degree"}
