"""Spans and counters around calls into the wcfg modules, installed from
outside the package.

Each wrapper replaces a module (or class) attribute at the name its
caller looks up, e.g. ``wcfg.decide.groebner_basis`` is what
``decide_parikh`` calls, so nothing under ``src/wcfg`` changes.  Spans
stay in memory as lists ``[id, parent, name, layer, start, end, case]``
and are written out once, after the run.
"""

import json
import time
from collections import Counter

# the wcfg submodules, each one layer
LAYERS = ("cli", "grammar", "analysis", "groebner", "polynomials", "decide",
          "linalg", "series", "regularize")

# (module, attribute, span name, layer); "cli.main" is the root of a case
SPANS = [
    ("cli", "main", "cli.main", "cli"),
    ("cli", "load_grammar", "grammar.load", "grammar"),
    ("cli", "is_cycle_free", "analysis.classify", "analysis"),
    ("cli", "is_nonexpansive", "analysis.classify", "analysis"),
    ("cli", "dimension_bound", "analysis.classify", "analysis"),
    ("cli", "degree", "analysis.degree", "analysis"),
    ("cli", "decide_parikh", "decide.decide_parikh", "decide"),
    ("cli", "grammar_series", "series.grammar_series", "series"),
    ("cli", "regularize", "regularize.regularize", "regularize"),
    ("cli", "render_report", "cli.render", "cli"),
    ("cli", "render_series", "cli.render", "cli"),
    ("cli", "render_grammar", "cli.render", "cli"),
    ("decide", "is_cycle_free", "analysis.classify", "analysis"),
    ("decide", "algebraic_system", "series.system", "series"),
    ("decide", "system_polynomials", "groebner.system_polynomials", "groebner"),
    ("decide", "groebner_basis", "groebner.basis", "groebner"),
    ("decide", "univar_gcd_squarefree", "groebner.squarefree", "groebner"),
    ("decide", "clear_denominators", "decide.clear_denominators", "decide"),
    ("decide", "discriminate_factor", "decide.discriminate", "decide"),
    ("decide", "nullspace", "linalg.nullspace", "linalg"),
    ("decide", "approximate", "series.approximate", "series"),
    ("decide", "eval_poly_at_series", "series.eval", "series"),
    ("groebner", "buchberger", "groebner.buchberger", "groebner"),
    ("groebner", "reduce_basis", "groebner.reduce_basis", "groebner"),
    ("series", "algebraic_system", "series.system", "series"),
    ("series", "approximate", "series.approximate", "series"),
    ("regularize", "at_most_k_grammar", "regularize.annotate", "regularize"),
    ("regularize", "is_nonexpansive", "analysis.classify", "analysis"),
    ("regularize", "dimension_bound", "analysis.classify", "analysis"),
    ("regularize", "degree", "analysis.degree", "analysis"),
]

# (module, attribute or Class.method, counter): call counts, no span
COUNTS = [
    ("groebner", "s_polynomial", "groebner.spoly_calls"),
    ("groebner", "poly_reduce", "groebner.poly_reduce_calls"),
    ("series", "TruncatedSeries.__mul__", "series.mul_calls"),
]


def _coeff_bits(basis):
    """Largest numerator or denominator bit length among the terminal
    polynomial coefficients of a basis over Q(Sigma)."""
    bits = 0
    for element in basis:
        for ratfun in element.terms.values():
            for poly in (ratfun.num, ratfun.den):
                for c in poly.terms.values():
                    bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    """Install with ``install(modules)``, run cases with ``case`` set, then
    ``uninstall()``; ``metrics()`` aggregates the recorded spans."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.maxima = Counter()
        self.case = None
        self._saved = []
        self._gcd_depth = 0

    # --- wrappers ---------------------------------------------------------

    def _span(self, fn, name, layer, post=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, layer, 0.0, 0.0, self.case]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _outermost_gcd(self, fn):
        """poly_gcd recurses through its module global, so only the
        outermost call opens a span."""
        traced = self._span(fn, "polynomials.gcd", "polynomials")

        def wrapper(*args):
            if self._gcd_depth:
                return fn(*args)
            self._gcd_depth += 1
            try:
                return traced(*args)
            finally:
                self._gcd_depth -= 1

        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- hooks reading results --------------------------------------------

    def _after_basis(self, args, basis):
        self.counts["groebner.basis_size"] += len(basis)
        bits = _coeff_bits(basis)
        if bits > self.maxima["polynomials.max_coeff_bits"]:
            self.maxima["polynomials.max_coeff_bits"] = bits

    def _after_decide(self, args, report):
        self.counts["decide.discrimination_order"] += report.discrimination_order

    def _after_nullspace(self, args, result):
        rows, ncols = args
        self.counts["linalg.matrix_cells"] += len(rows) * ncols

    def _after_regularize(self, args, grammar):
        self.counts["regularize.states"] += len(grammar.variables)
        self.counts["regularize.rules"] += len(grammar.rules)

    # --- installation -----------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, modules):
        """``modules`` maps a short name ("cli", "decide", ...) to the
        imported wcfg submodule."""
        posts = {
            "groebner.basis": self._after_basis,
            "decide.decide_parikh": self._after_decide,
            "linalg.nullspace": self._after_nullspace,
            "regularize.regularize": self._after_regularize,
        }
        for mod, attr, name, layer in SPANS:
            owner = modules[mod]
            self._replace(owner, attr,
                          self._span(getattr(owner, attr), name, layer, posts.get(name)))
        for mod, attr, key in COUNTS:
            owner = modules[mod]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            self._replace(owner, attr, self._counted(getattr(owner, attr), key))
        poly = modules["polynomials"]
        self._replace(poly, "poly_gcd", self._outermost_gcd(poly.poly_gcd))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- aggregation ------------------------------------------------------

    def metrics(self):
        """Totals over every recorded span: time per span name, call
        counts, self time per layer, and the counters."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        time_by_name = Counter()
        calls_by_name = Counter()
        self_by_layer = Counter({layer: 0.0 for layer in LAYERS})
        self_by_name = Counter()
        for sid, parent, name, layer, start, end, _ in self.spans:
            duration = end - start
            calls_by_name[name] += 1
            if parent < 0 or self.spans[parent][2] != name:
                time_by_name[name] += duration
            self_by_layer[layer] += duration - child[sid]
            self_by_name[name] += duration - child[sid]
        return {
            "time": time_by_name,
            "calls": calls_by_name,
            "self_layer": self_by_layer,
            "self_name": self_by_name,
            "counts": self.counts,
            "maxima": self.maxima,
        }

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec) + "\n")
