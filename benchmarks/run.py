"""ctxcheck benchmark: time to a verdict through the command line.

    python3 benchmarks/run.py --workload dense-page --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark generates the workload's
inputs from the seed, then runs them in one process and one thread as a
closed loop: each operation is one in-process call to
``ctxcheck.cli.main`` that starts when the previous one has finished.
It repeats whole passes over the inputs until ``--seconds`` have gone
by, then checks every report against the expected results outside the
timed region.  With ``--trace 0`` it reports the end-to-end metrics,
each time scaled by the machine's slowdown that the calibration kernel
in calibrate.py shows next to it; with ``--trace 1`` it runs each input
once untraced and once traced and reports per-layer metrics from the
spans.  The last line of standard output is one JSON object; see
README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

from calibrate import slowdown

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")

# doc_tail_ms: the highest percentile with at least ten samples beyond
# it, fixed per workload so that runs of two commits report the same
# one.  A sample is an input's median time where a pass has at least 40
# inputs, which keeps a slow spell of the machine out of the tail;
# script-heavy has six inputs, so there a sample is one operation.
TAIL = {"dense-page": (75, "inputs"), "script-heavy": (75, "operations"),
        "bundle-stream": (97.5, "inputs")}

# How strongly each workload's operation times follow the calibration
# kernel's slowdown: a time is divided by the slowdown raised to this
# power.  Python loops make up nearly all of script-heavy and
# bundle-stream, as they do the kernel; on dense-page about half the
# time is strip's whole-string replaces, which slow less.  Each value is
# the one that made operation times flattest over 150-200 s with the
# kernel run before every operation (see README.md).
ELASTICITY = {"dense-page": 0.65, "script-heavy": 1.0, "bundle-stream": 1.0}

SETUP_RUNS = 21
# calibrate imports only time, so importing it first leaves the
# measured import whole.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
sys.path.append(sys.argv[2])
import calibrate
calibrate.slowdown()
before = calibrate.slowdown()
start = time.perf_counter()
import ctxcheck.cli
ctxcheck.default_context_map()
setup = time.perf_counter() - start
print(setup, (before + calibrate.slowdown()) / 2)
"""
PEAK_CODE = """\
import contextlib, os, resource, sys
sys.path.insert(0, sys.argv[1])
import ctxcheck.cli
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    ctxcheck.cli.main(sys.argv[2:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# Per-layer stages whose scaling is fitted, and the input size (a Case
# field) each scales with.
SCALED = {
    "annotations.strip": "doc_bytes",
    "template.render": "doc_bytes",
    "browser.analyze": "doc_bytes",
    "verifier.verify": "tokens",
    "verifier.aggregate": "tokens",
}


def setup_seconds() -> tuple:
    """Median time to import ctxcheck and build the default context map,
    each in a fresh interpreter: scaled by the slowdown the kernel shows
    in the same interpreter right before and after, and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC,
                               BENCH_DIR],
                              capture_output=True, text=True, check=True,
                              timeout=60)
        setup, slow = map(float, done.stdout.split())
        scaled.append(setup / slow)
        raw.append(setup)
    return statistics.median(scaled), statistics.median(raw)


def peak_rss_mb(argv: list) -> float:
    """Peak resident memory of a fresh interpreter running one CLI call."""
    done = subprocess.run([sys.executable, "-c", PEAK_CODE, SRC, *argv],
                          capture_output=True, text=True, check=True,
                          timeout=170)
    return int(done.stdout) / 1024


def run_op(main, argv: list):
    """One CLI call; returns (seconds, exit code or exception, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation, not a stop
            code = traceback.format_exc()
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue()


class Checker:
    """Compares each report with its case, by sink id."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        self.verdicts = 0
        self.wrong_regular = 0
        self.wrong_gap = 0
        self.gap_rows = 0

    def check(self, case, code, stdout: str) -> None:
        self.attempted += 1
        if isinstance(code, str):
            return self._fail("raised: " + code.strip().splitlines()[-1])
        if code != case.exit_code:
            return self._fail(f"exit code {code}, expected {case.exit_code}")
        try:
            report = json.loads(stdout)
        except ValueError:
            return self._fail("report is not JSON")
        if report.get("clean_document") != case.clean:
            return self._fail("clean document differs from the expected one")
        seen = set()
        for verdict in report.get("verdicts", []):
            sink = verdict.get("sink")
            row = case.rows.get(sink)
            if row is None or sink in seen:
                self.wrong_regular += 1
                continue
            seen.add(sink)
            if not _right(row, verdict):
                self._wrong(row)
        for sink, row in case.rows.items():
            self.gap_rows += row.slot.gap
            if sink not in seen:
                self._wrong(row)
        self.verdicts += len(case.rows)

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.first_failure = self.first_failure or problem

    def _wrong(self, row) -> None:
        if row.slot.gap:
            self.wrong_gap += 1
        else:
            self.wrong_regular += 1


def _right(row, verdict: dict) -> bool:
    slot = row.slot
    if slot.gap:
        # What the model should say about these contexts is open; only
        # the sufficiency a browser implies is fixed.
        return verdict.get("sufficient") is slot.sufficient
    return (verdict.get("origin") == row.origin
            and tuple(verdict.get("chain", ())) == slot.chain
            and tuple(verdict.get("context", ())) == slot.context
            and verdict.get("sufficient") is slot.sufficient
            and verdict.get("pattern") == slot.pattern)


def nearest_rank(values: list, percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def slope(points: list) -> float:
    """Least-squares slope of log(y) on log(x); 0 without two sizes."""
    points = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def measure(cases, argvs, main, seconds: int, checker: Checker,
            tracer=None):
    """Whole passes over the cases until ``seconds`` have gone by.

    Returns the passes made, (seconds, case index) for every untraced
    operation and for the traced ones when tracing, and, when not
    tracing, the slowdown the calibration kernel showed before each
    operation and after the last.
    """
    plain, traced, slow = [], [], []
    traced_main = tracer.wrap("cli", main) if tracer else None
    deadline = perf_counter() + seconds
    passes = 0
    while passes == 0 or perf_counter() < deadline:
        for index, case in enumerate(cases):
            if tracer is None:
                slow.append(slowdown())
                elapsed, code, stdout = run_op(main, argvs[index])
                checker.check(case, code, stdout)
                plain.append((elapsed, index))
                continue
            # Alternate which run goes first, so neither always finds
            # the caches the other left warm.
            for mode in ((0, 1) if (index + passes) % 2 else (1, 0)):
                if mode:
                    tracer.op_id = len(traced)
                    tracer.install()
                    try:
                        elapsed, code, stdout = run_op(traced_main,
                                                       argvs[index])
                    finally:
                        tracer.uninstall()
                    traced.append((elapsed, index))
                else:
                    elapsed, code, stdout = run_op(main, argvs[index])
                    plain.append((elapsed, index))
                checker.check(case, code, stdout)
        passes += 1
    if tracer is None:
        slow.append(slowdown())
    return passes, plain, traced, slow


def scaled(plain: list, slow: list, elasticity: float) -> list:
    """Each operation's time at reference speed, judged by the mean of
    the slowdowns the kernel showed on either side of it."""
    return [(elapsed / ((slow[i] + slow[i + 1]) / 2) ** elasticity, index)
            for i, (elapsed, index) in enumerate(plain)]


def timings(workload, cases, ops):
    """Latency and throughput metrics from (seconds, case index) pairs,
    and the tail's sample count."""
    # Each input is timed by its median over the passes, so that a slow
    # spell of the machine weighs less.
    by_case = {}
    for elapsed, index in ops:
        by_case.setdefault(index, []).append(elapsed)
    latency = [statistics.median(ts) for ts in by_case.values()]
    total = sum(latency)
    doc_bytes = sum(cases[i].doc_bytes for i in by_case)
    tokens = sum(cases[i].tokens for i in by_case)
    percentile, basis = TAIL[workload]
    samples = latency if basis == "inputs" else [t for t, _ in ops]
    tail = nearest_rank(samples, percentile)
    metrics = {
        "doc_p50_ms": (statistics.median(latency) * 1000, "ms"),
        "doc_tail_ms": (tail * 1000, "ms"),
        "mb_per_s": (doc_bytes / total / 1e6, "MB/s"),
        "tokens_per_s": (tokens / total, "1/s"),
    }
    return metrics, len(latency), sum(t > tail for t in samples)


def end_to_end(workload, cases, passes, plain, slow, checker, setup,
               peak_mb):
    metrics, inputs, beyond = timings(
        workload, cases, scaled(plain, slow, ELASTICITY[workload]))
    raw, _, _ = timings(workload, cases, plain)
    wrong = checker.wrong_regular + checker.wrong_gap
    metrics = {
        "setup_s": (setup[0], "s"),
        **metrics,
        "peak_rss_mb": (peak_mb, "MiB"),
        "ok_share": (1 - checker.failed / checker.attempted, "share"),
        "right_verdict_share": (
            1 - wrong / max(checker.verdicts, 1), "share"),
    }
    percentile, basis = TAIL[workload]
    detail = {
        "passes": passes,
        "operations": len(plain),
        "inputs": inputs,
        "tail_percentile": percentile,
        "tail_over": basis,
        "samples_beyond_tail": beyond,
        "failed_share": checker.failed / checker.attempted,
        "wrong_verdict_share": wrong / max(checker.verdicts, 1),
        "gap_row_share": checker.gap_rows / max(checker.verdicts, 1),
        "slowdown_median": statistics.median(slow),
        "raw": {"setup_s": setup[1],
                **{name: value for name, (value, _) in raw.items()}},
    }
    return metrics, detail


def per_layer(cases, plain, traced, tracer):
    totals, per_op = tracer.summary()
    ops = len(traced)

    def stat(name, field):  # totals is a defaultdict: 0 for stages not run
        return totals[name][field] / ops

    metrics = {
        "annotations.strip_s": (stat("annotations.strip", 1), "s"),
        "template.parse_s": (stat("template.parse", 1), "s"),
        "template.render_s": (stat("template.render", 1), "s"),
        "browser.analyze_s": (stat("browser.analyze", 1), "s"),
    }
    for scan in ("html", "js", "css", "uri"):
        name = f"browser.{scan}_scan"
        metrics[f"{name}.self_s"] = (stat(name, 2), "s")
        metrics[f"{name}.calls"] = (stat(name, 0), "count")
    metrics["browser.unknown_tokens"] = (tracer.unknown_tokens / ops, "count")
    for decoder in ("entity_decode", "percent_decode", "css_unescape"):
        name = f"decoders.{decoder}"
        metrics[f"{name}_s"] = (stat(name, 1), "s")
        metrics[f"{name}.calls"] = (stat(name, 0), "count")
    calls = totals["verifier.sufficient"][0]
    metrics.update({
        "verifier.verify_s": (stat("verifier.verify", 1), "s"),
        "verifier.sufficient.calls": (calls / ops, "count"),
        "verifier.sufficient.distinct_share": (
            len(tracer.sufficient_pairs) / max(calls, 1), "share"),
        "verifier.aggregate_s": (stat("verifier.aggregate", 1), "s"),
        "bundle.load_s": (stat("bundle.load", 1), "s"),
        "cli.self_s": (stat("cli", 2), "s"),
    })
    for name, size in SCALED.items():
        points = [(getattr(cases[index], size), per_op[name, op])
                  for op, (_, index) in enumerate(traced)
                  if (name, op) in per_op]
        metrics[f"{name}.scale_exp"] = (slope(points), "exponent")
    untraced = sum(t for t, _ in plain)
    metrics["trace.overhead_share"] = (
        (sum(t for t, _ in traced) - untraced) / untraced, "share")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("dense-page", "script-heavy",
                                 "bundle-stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ctxcheck", "cli.py")):
        print(f"error: no ctxcheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ctxcheck.cli
    if not os.path.abspath(ctxcheck.cli.__file__).startswith(SRC + os.sep):
        print("error: ctxcheck was imported from outside the checkout",
              file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    setup = setup_seconds() if not args.trace else None
    cases = WORKLOADS[args.workload](args.seed)
    work = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        names = set()
        for case in cases:
            for name, content in case.files.items():
                with open(os.path.join(work, name), "w",
                          encoding="utf-8") as handle:
                    handle.write(content)
            names.update(case.files)
            case.files.clear()  # on disk now; free the text before timing
        argvs = [[os.path.join(work, a) if a in names else a
                  for a in case.argv] for case in cases]
        if not args.trace:
            largest = max(range(len(cases)), key=lambda i: cases[i].doc_bytes)
            peak_mb = peak_rss_mb(argvs[largest])
        # Warm up on the smallest case, outside the measurement.
        warm = min(range(len(cases)), key=lambda i: cases[i].doc_bytes)
        run_op(ctxcheck.cli.main, argvs[warm])
        # Keep the benchmark's own inputs and expectations out of the
        # collector's work, so operation times do not depend on them.
        gc.collect()
        gc.freeze()
        checker = Checker()
        tracer = Tracer() if args.trace else None
        passes, plain, traced, slow = measure(
            cases, argvs, ctxcheck.cli.main, args.seconds, checker, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer(cases, plain, traced, tracer)
        detail = {"passes": passes, "traced_operations": len(traced),
                  "missing_hooks": tracer.missing}
    else:
        metrics, detail = end_to_end(args.workload, cases, passes, plain,
                                     slow, checker, setup, peak_mb)
    detail["first_failure"] = checker.first_failure
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      **detail}))
    print(json.dumps({
        "correct": checker.failed == 0 and checker.wrong_regular == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
