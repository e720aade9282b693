"""Time each stage of ``check`` and ``analyze`` in two ctxcheck source trees.

Usage: python tools/stages.py OLD_SRC NEW_SRC [--rounds N]

Each argument is a directory that holds the ``ctxcheck`` package, such
as a checkout's ``src``, or a checkout whose ``src`` holds it.  The
inputs are those ``benchmarks/workloads.py`` generates for seed 1: the
forty 1k-sink pages and one 8k-sink page of ``dense-page``, the six
``script-heavy`` pages of 0.6-1.4 MB of script, and the 400
``bundle-stream`` bundles.  Each round runs each tree once, in its own
process, old first in odd rounds and new first in even ones.  A run
times ``parse_template``, ``render`` (with seed 0), ``analyze``,
``verify``, ``aggregate`` and ``cli._report_json`` once on every page,
as ``check`` runs them, and ``read_bundle``, ``analyze``, ``verify``,
``aggregate``, ``strip_annotations`` and ``cli._report_json`` once on
every bundle, as ``analyze`` runs them, after one untimed pass over the
first page and the first bundle.  Each input runs with the garbage
collector disabled, and a full collection runs, untimed, before each
one, so that no stage is charged for a collection that an earlier one
caused; ``benchmarks/run.py`` times with the collector on.

Prints, for each stage, the best time over the rounds in milliseconds
for each tree and the new/old ratio: averaged over the 1k-sink pages,
for the 8k-sink page, averaged over the script pages and averaged over
the bundles.  Exits 2 if a tree cannot be run, and 0 otherwise.  Nothing
under ``benchmarks/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
from compare_reports import TreeError, package_dir  # noqa: E402

SEED = 1
CHECK_STAGES = ("parse_template", "render", "analyze", "verify",
                "aggregate", "_report_json")
ANALYZE_STAGES = ("read_bundle", "analyze", "verify", "aggregate",
                  "strip_annotations", "_report_json")

# Runs in the child: SRC INPUTS OUT.  INPUTS holds "pages", [template,
# env] pairs, and "bundles", paths of bundle files; OUT gets the same
# keys, each with one list of stage times in nanoseconds per input.
RUNNER = r"""
import gc, json, os, sys
from time import perf_counter_ns as now
src, inputs_path, out = sys.argv[1:]
sys.path.insert(0, src)
from ctxcheck.annotations import strip_annotations
from ctxcheck.browser import analyze
from ctxcheck.bundle import read_bundle
from ctxcheck.cli import _report_json
from ctxcheck.template import parse_template, render
from ctxcheck.verifier import aggregate, default_context_map, verify
if not os.path.abspath(sys.modules["ctxcheck"].__file__).startswith(src + os.sep):
    sys.exit(f"ctxcheck was imported from outside {src}")
with open(inputs_path, encoding="utf-8") as handle:
    inputs = json.load(handle)
cmap = default_context_map()

def check(source, env):
    gc.collect()
    t0 = now()
    template = parse_template(source)
    t1 = now()
    document, registry, clean = render(template, env, seed=0)
    t2 = now()
    findings = analyze(document, registry)
    t3 = now()
    verdicts = verify(findings, registry, cmap)
    t4 = now()
    summary = aggregate(verdicts)
    t5 = now()
    _report_json(findings, verdicts, summary, clean)
    t6 = now()
    return [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5]

def analyze_bundle(path):
    gc.collect()
    t0 = now()
    bundle = read_bundle(path)
    t1 = now()
    findings = analyze(bundle.document, bundle.registry)
    t2 = now()
    verdicts = verify(findings, bundle.registry, cmap)
    t3 = now()
    summary = aggregate(verdicts)
    t4 = now()
    clean = strip_annotations(bundle.document, bundle.registry)
    t5 = now()
    _report_json(findings, verdicts, summary, clean)
    t6 = now()
    return [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5]

gc.disable()
check(*inputs["pages"][0])
analyze_bundle(inputs["bundles"][0])
times = {"pages": [check(*page) for page in inputs["pages"]],
         "bundles": [analyze_bundle(path) for path in inputs["bundles"]]}
with open(out, "w", encoding="utf-8") as handle:
    json.dump(times, handle)
"""


def write_inputs(work: str) -> list[tuple[str, tuple, str, list[int]]]:
    """Write the seed-1 inputs under ``work``; return each group's
    title, stages, kind of input and indices."""
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    sys.dont_write_bytecode = True
    from workloads import bundle_stream, dense_page, script_heavy

    dense, script = dense_page(SEED), script_heavy(SEED)
    pages = [[next(content for name, content in case.files.items()
                   if name.endswith(".tpl")),
              json.loads(cases[0].files["env.json"])]
             for cases in (dense, script) for case in cases]
    bundles = []
    for case in bundle_stream(SEED):
        (name, content), = case.files.items()
        bundles.append(os.path.join(work, name))
        with open(bundles[-1], "w", encoding="utf-8") as handle:
            handle.write(content)
    with open(os.path.join(work, "inputs.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"pages": pages, "bundles": bundles}, handle)
    sinks = [case.tokens for case in dense]
    small = [i for i, count in enumerate(sinks) if count < max(sinks)]
    large = sinks.index(max(sinks))
    return [(f"{len(small)} pages of {sinks[small[0]]} sinks, mean",
             CHECK_STAGES, "pages", small),
            (f"1 page of {sinks[large]} sinks", CHECK_STAGES, "pages",
             [large]),
            (f"{len(script)} script-heavy pages, mean", CHECK_STAGES, "pages",
             list(range(len(dense), len(pages)))),
            (f"{len(bundles)} bundle-stream bundles, mean", ANALYZE_STAGES,
             "bundles", list(range(len(bundles))))]


def run_tree(src: str, inputs_path: str, out_path: str) -> dict:
    done = subprocess.run([sys.executable, "-c", RUNNER, src, inputs_path,
                           out_path], capture_output=True, text=True)
    if done.returncode != 0:
        raise TreeError(f"the runs of {src} failed:\n{done.stderr}")
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time each stage of check and analyze in two source "
                    "trees.")
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--rounds", type=int, default=15,
                        help="runs of each tree; the best is kept")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory(prefix="ctxcheck-stages-") as work:
        try:
            trees = [package_dir(tree) for tree in (args.old, args.new)]
            groups = write_inputs(work)
            # best[tree][kind][input][stage], in nanoseconds
            best = [None, None]
            for round_ in range(args.rounds):
                order = (0, 1) if round_ % 2 == 0 else (1, 0)
                for tree in order:
                    times = run_tree(trees[tree],
                                     os.path.join(work, "inputs.json"),
                                     os.path.join(work, "out.json"))
                    best[tree] = times if best[tree] is None else {
                        kind: [list(map(min, a, b))
                               for a, b in zip(best[tree][kind], runs)]
                        for kind, runs in times.items()}
        except TreeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(f"best of {args.rounds} rounds, ms")
    for title, stages, kind, inputs in groups:
        print(f"\n{title}\n{'stage':<19}{'old':>9}{'new':>9}{'new/old':>9}")
        for stage, name in enumerate(stages):
            old, new = (sum(best[tree][kind][i][stage] for i in inputs)
                        / len(inputs) / 1e6 for tree in (0, 1))
            print(f"{name:<19}{old:9.3f}{new:9.3f}{new / old:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
