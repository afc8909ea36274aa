"""Benchmark of the wcfg command-line toolkit.

    python3 bench/run.py --workload decide-q --seed 1 --seconds 40 --trace 0

Run from the repository root.  Workloads (see workloads.py):

    decide-q          wcfg decide on seeded cycle-free Q grammars and the
                      shipped Q documents; Buchberger and gcd dominate
    series-deep       wcfg series at orders 5..40 on the shipped documents
                      and on regular grammars of the chain family; no
                      Groebner work
    regularize-chain  wcfg regularize on the chain family, multi-letter
                      chains and seeded nonexpansive grammars; annotation
                      and the state closure dominate

Each case calls ``wcfg.cli.main`` in this process with stdout captured,
under a per-case deadline enforced by a timer signal.  The corpus is
run in whole passes: once, and again while another pass is expected to
end inside ``--seconds`` or fewer than MIN_SAMPLES runs are recorded.
Outputs are checked by independent oracles after the timed loop.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
every case is run twice in a row, untraced and traced, and the
per-layer metrics come from spans recorded around the calls into each
wcfg module (tracer.py), with the tracing overhead measured against the
untraced runs.  Every metric is printed by name and unit; the last line
of stdout is one JSON object with the keys correct, attempted, failed
and metrics.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 7
# set-up is repeated at least SETUP_REPS times and for at least this long:
# single set-ups of 0.1 to 0.2 s swung by a fifth with the host's speed,
# and the median of seven such, taken inside one second, moved by more
# than a third from run to run on series-deep
SETUP_MIN_S = 3.0
MIN_SAMPLES = 100
# wall-clock guard: no new pass or repeat starts after this, so that a run
# exits well inside 180 s even when the code under test slows down
RUN_CAP_S = 140.0

END_TO_END = [
    ("setup_s", "s"),
    ("case_p50_s", "s"),
    ("case_p90_s", "s"),
    ("cases_per_s", "1/s"),
    ("completed_frac", "ratio"),
]

# Each group names the end-to-end metric and workload it should move.
PER_LAYER = [
    # setup_s on every workload
    ("grammar.parse_s", "s"),
    # case_p50_s on regularize-chain; negligible elsewhere
    ("analysis.classify_s", "s"),
    ("analysis.classify_calls", "count"),
    # case_p90_s, cases_per_s and completed_frac on decide-q; no change
    # predicted on series-deep and regularize-chain
    ("groebner.basis_s", "s"),
    ("groebner.buchberger_s", "s"),
    ("groebner.reduce_basis_s", "s"),
    ("groebner.spoly_calls", "count"),
    ("groebner.poly_reduce_calls", "count"),
    ("groebner.basis_size", "count"),
    ("groebner.squarefree_s", "s"),
    # case_p90_s on decide-q (outermost poly_gcd calls only)
    ("polynomials.gcd_s", "s"),
    ("polynomials.gcd_calls", "count"),
    ("polynomials.max_coeff_bits", "bits"),
    # case_p90_s on decide-q
    ("decide.clear_denominators_s", "s"),
    ("decide.discriminate_s", "s"),
    ("decide.discrimination_order", "count"),
    # case_p90_s on the decide-q cases that reach reconstruction
    ("linalg.nullspace_s", "s"),
    ("linalg.matrix_cells", "count"),
    # case_p50_s, case_p90_s and cases_per_s on series-deep; on decide-q
    # only through discrimination
    ("series.system_s", "s"),
    ("series.approximate_s", "s"),
    ("series.approximate_calls", "count"),
    ("series.mul_calls", "count"),
    ("series.eval_s", "s"),
    # case_p90_s on regularize-chain
    ("regularize.annotate_s", "s"),
    ("regularize.closure_s", "s"),
    ("regularize.states", "count"),
    ("regularize.rules", "count"),
    # case_p50_s on series-deep at high orders
    ("cli.render_s", "s"),
    # self time of each module, and the cost of tracing itself
] + [(f"{m}.self_s", "s") for m in tracer.LAYERS] + [("trace.overhead_frac", "ratio")]


class Deadline(BaseException):
    """Raised from the timer signal.  It derives from BaseException so
    that neither the CLI's ``except WcfgError`` nor any ``except
    Exception`` on the way up can swallow it."""


def _on_alarm(signum, frame):
    raise Deadline()


def import_wcfg():
    """A fresh import of the package from SRC; returns its submodules by
    short name."""
    for name in [m for m in sys.modules if m == "wcfg" or m.startswith("wcfg.")]:
        del sys.modules[name]
    importlib.import_module("wcfg")
    mods = {m: importlib.import_module(f"wcfg.{m}") for m in tracer.LAYERS}
    if not mods["cli"].__file__.startswith(SRC + os.sep):
        raise ImportError(f"wcfg imported from {mods['cli'].__file__}, not from {SRC}")
    return mods


def setup(workload, seed, workdir):
    """Import, generate and parse the corpus SETUP_REPS times or more,
    until SETUP_MIN_S have passed; the corpus is the same each time, and
    the median is set-up time."""
    times = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S:
        start = time.perf_counter()
        mods = import_wcfg()
        cases = workload.build(seed, ROOT, workdir, mods)
        times.append(time.perf_counter() - start)
    return mods, cases, statistics.median(times)


def parse_time(mods, cases):
    """Median over SETUP_REPS of parsing every corpus document once."""
    parse = mods["grammar"].parse_grammar
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        for case in cases:
            parse(case.text)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_case(cli, case, deadline):
    """(seconds, status, payload): status "ok" with the captured stdout,
    "timeout" with the time counted at the deadline, or "error" with a
    description.  Nothing a case does is dropped."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(case.argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        return deadline, "timeout", None
    except SystemExit as exc:
        return time.perf_counter() - start, "error", f"exit {exc.code}: {err.getvalue()[:300]}"
    except Exception as exc:  # a case that raises is a recorded failure
        return time.perf_counter() - start, "error", f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if elapsed >= deadline:
        return deadline, "timeout", None
    if code != 0:
        return elapsed, "error", f"exit code {code}: {err.getvalue()[:300]}"
    return elapsed, "ok", out.getvalue()


class Record:
    """Samples of every case run, with the first completed stdout of each
    case; a later run whose stdout differs from the first is a failure."""

    def __init__(self):
        self.samples = []  # [case index, seconds, status]
        self.outputs = {}
        self.errors = {}

    def add(self, index, result):
        seconds, status, payload = result
        if status == "ok":
            first = self.outputs.setdefault(index, payload)
            if payload != first:
                status = "error"
                self.errors.setdefault(index, "stdout differs between runs of the case")
        elif status == "error":
            self.errors.setdefault(index, payload)
        self.samples.append([index, seconds, status])

    def judge(self, failures):
        """Turn ok samples of cases that failed their check into failures."""
        for sample in self.samples:
            if sample[2] == "ok" and sample[0] in failures:
                sample[2] = "error"
        for index, message in failures.items():
            self.errors.setdefault(index, message)


def measure(cli, cases, deadline, seconds, record):
    """Whole passes over the corpus: the first always, and another while
    it is expected to end inside the time and until MIN_SAMPLES runs
    are recorded; returns the loop's wall time."""
    start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if record.samples and (
            elapsed + last > RUN_CAP_S
            or (elapsed + last > seconds and len(record.samples) >= MIN_SAMPLES)
        ):
            break
        last = one_pass(cli, cases, deadline, record, start + RUN_CAP_S)
    return time.perf_counter() - start


def one_pass(cli, cases, deadline, record, cap):
    """Every case once, in corpus order; past the wall-clock ``cap`` the
    remaining cases are recorded as timeouts without running."""
    start = time.perf_counter()
    for i, case in enumerate(cases):
        if time.perf_counter() > cap:
            record.add(i, (deadline, "timeout", None))
        else:
            record.add(i, run_case(cli, case, deadline))
    return time.perf_counter() - start


def paired_pass(mods, cases, deadline, record, trace, cap, flip):
    """Every case twice, untraced and traced, in an order that alternates
    from case to case so that drift in machine speed falls on both sides
    alike; returns the summed case times (untraced, traced)."""
    times = [0.0, 0.0]
    for i, case in enumerate(cases):
        trace.case = i
        for traced in ((False, True) if (i % 2 == 0) != flip else (True, False)):
            if time.perf_counter() > cap:
                result = (deadline, "timeout", None)
            elif traced:
                trace.install(mods)
                try:
                    result = run_case(mods["cli"], case, deadline)
                finally:
                    trace.uninstall()
            else:
                result = run_case(mods["cli"], case, deadline)
            times[traced] += result[0]
            record.add(i, result)
    return times


def end_to_end(record, wall, setup_s):
    times = [s[1] for s in record.samples]
    ok = sum(1 for s in record.samples if s[2] == "ok")
    return {
        "setup_s": setup_s,
        "case_p50_s": statistics.median(times),
        "case_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
        "cases_per_s": ok / wall,
        "completed_frac": ok / len(times),
    }


def per_layer(trace, passes, parse_s, overhead):
    m = trace.metrics()
    t, calls, counts = m["time"], m["calls"], m["counts"]
    totals = {
        "analysis.classify_s": t["analysis.classify"],
        "analysis.classify_calls": calls["analysis.classify"],
        "groebner.basis_s": t["groebner.basis"],
        "groebner.buchberger_s": t["groebner.buchberger"],
        "groebner.reduce_basis_s": t["groebner.reduce_basis"],
        "groebner.spoly_calls": counts["groebner.spoly_calls"],
        "groebner.poly_reduce_calls": counts["groebner.poly_reduce_calls"],
        "groebner.basis_size": counts["groebner.basis_size"],
        "groebner.squarefree_s": t["groebner.squarefree"],
        "polynomials.gcd_s": t["polynomials.gcd"],
        "polynomials.gcd_calls": calls["polynomials.gcd"],
        "decide.clear_denominators_s": t["decide.clear_denominators"],
        "decide.discriminate_s": t["decide.discriminate"],
        "decide.discrimination_order": counts["decide.discrimination_order"],
        "linalg.nullspace_s": t["linalg.nullspace"],
        "linalg.matrix_cells": counts["linalg.matrix_cells"],
        "series.system_s": t["series.system"],
        "series.approximate_s": t["series.approximate"],
        "series.approximate_calls": calls["series.approximate"],
        "series.mul_calls": counts["series.mul_calls"],
        "series.eval_s": t["series.eval"],
        "regularize.annotate_s": t["regularize.annotate"],
        "regularize.closure_s": m["self_name"]["regularize.regularize"],
        "regularize.states": counts["regularize.states"],
        "regularize.rules": counts["regularize.rules"],
        "cli.render_s": t["cli.render"],
    }
    for layer in tracer.LAYERS:
        totals[f"{layer}.self_s"] = m["self_layer"][layer]
    # totals are per traced pass over the corpus
    out = {name: value / passes for name, value in totals.items()}
    out["grammar.parse_s"] = parse_s
    out["polynomials.max_coeff_bits"] = m["maxima"]["polynomials.max_coeff_bits"]
    out["trace.overhead_frac"] = overhead
    return out


def commit():
    """The checked-out commit, read from .git without running git;
    "unknown" outside a git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(metrics, units, record, cases, unbounded=None):
    attempted = len(record.samples)
    timeouts = sum(1 for s in record.samples if s[2] == "timeout")
    failed = sum(1 for s in record.samples if s[2] == "error")
    print(f"cases: {len(cases)} distinct, {attempted} runs, "
          f"{timeouts} timeouts, {failed} failures")
    print(f"metric timeout_frac = {timeouts / attempted:.6g} ratio")
    print(f"metric fail_frac = {failed / attempted:.6g} ratio")
    for name, (value, unit) in (unbounded or {}).items():
        print(f"metric {name} = {value:.6g} {unit}")
    for index in sorted(record.errors):
        print(f"FAILED {cases[index].name}: {record.errors[index]}")
    for name, unit in units:
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wcfg", "cli.py")):
        print(f"error: no wcfg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS[args.workload]
    print(f"workload: {workload.name}  seed: {args.seed}  seconds: {args.seconds}  "
          f"trace: {args.trace}")
    print(f"python: {platform.python_version()}  nproc: {len(os.sched_getaffinity(0))}  "
          f"commit: {commit()}")

    run_dir = os.path.join(ROOT, ".bench_run")
    workdir = os.path.join(run_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        mods, cases, setup_s = setup(workload, args.seed, workdir)
        # keep the harness's own objects out of the collector's later passes
        gc.collect()
        gc.freeze()
        cli = mods["cli"]
        record = Record()
        if args.trace == 0:
            wall = measure(cli, cases, workload.deadline, args.seconds, record)
            # a maximum over single cases, which moves by half between
            # seeds of decide-q, so it is printed but carries no bound
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            record.judge(workload.check(cases, record.outputs))
            metrics = end_to_end(record, wall, setup_s)
            report(metrics, END_TO_END, record, cases, {"peak_rss_mb": (rss_mb, "MB")})
        else:
            parse_s = parse_time(mods, cases)
            trace = tracer.Tracer()
            plain = traced = 0.0
            passes = 0
            start = time.perf_counter()
            while True:
                pair = paired_pass(mods, cases, workload.deadline, record, trace,
                                   start + RUN_CAP_S, passes % 2 == 1)
                plain += pair[0]
                traced += pair[1]
                passes += 1
                elapsed = time.perf_counter() - start
                ahead = elapsed + elapsed / passes
                if ahead > args.seconds or ahead > RUN_CAP_S:
                    break
            record.judge(workload.check(cases, record.outputs))
            metrics = per_layer(trace, passes, parse_s, traced / plain - 1)
            trace.write(os.path.join(run_dir, f"spans-{workload.name}-{args.seed}.jsonl"))
            print(f"spans: {len(trace.spans)} over {passes} traced passes")
            report(metrics, PER_LAYER, record, cases)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
