"""Time each stage of ``check`` in two ctxcheck source trees.

Usage: python tools/stages.py OLD_SRC NEW_SRC [--rounds N]

Each argument is a directory that holds the ``ctxcheck`` package, such
as a checkout's ``src``, or a checkout whose ``src`` holds it.  The
inputs are the seed-1 ``dense-page`` pages that ``benchmarks/workloads.py``
generates: forty 1k-sink pages and one 8k-sink page.  Each round runs
each tree once, in its own process, old first in odd rounds and new
first in even ones.  A run times ``parse_template``, ``render`` (with
seed 0), ``analyze``, ``verify``, ``aggregate`` and ``cli._report_json``
once on every page, after one untimed pass over the first page.

Prints, for each stage, the best time over the rounds in milliseconds
for each tree and the new/old ratio: averaged over the 1k-sink pages,
and for the 8k-sink page.  Exits 2 if a tree cannot be run, and 0
otherwise.  Nothing under ``benchmarks/`` is changed.
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
STAGES = ("parse_template", "render", "analyze", "verify", "aggregate",
          "_report_json")

# Runs in the child: SRC PAGES OUT.  PAGES holds [template, env] pairs;
# OUT gets one list of stage times in nanoseconds per page.
RUNNER = r"""
import json, os, sys
from time import perf_counter_ns as now
src, pages_path, out = sys.argv[1:]
sys.path.insert(0, src)
from ctxcheck.browser import analyze
from ctxcheck.cli import _report_json
from ctxcheck.template import parse_template, render
from ctxcheck.verifier import aggregate, default_context_map, verify
if not os.path.abspath(sys.modules["ctxcheck"].__file__).startswith(src + os.sep):
    sys.exit(f"ctxcheck was imported from outside {src}")
with open(pages_path, encoding="utf-8") as handle:
    pages = json.load(handle)
cmap = default_context_map()

def run(source, env):
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

run(*pages[0])
with open(out, "w", encoding="utf-8") as handle:
    json.dump([run(source, env) for source, env in pages], handle)
"""


def write_pages(path: str) -> list[int]:
    """Write the seed-1 dense-page pages; return each page's sink count."""
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    sys.dont_write_bytecode = True
    from workloads import dense_page

    cases = dense_page(SEED)
    env = json.loads(cases[0].files["env.json"])
    pages = [next(content for name, content in case.files.items()
                  if name.endswith(".tpl")) for case in cases]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([[page, env] for page in pages], handle)
    return [case.tokens for case in cases]


def run_tree(src: str, pages_path: str, out_path: str) -> list[list[int]]:
    done = subprocess.run([sys.executable, "-c", RUNNER, src, pages_path,
                           out_path], capture_output=True, text=True)
    if done.returncode != 0:
        raise TreeError(f"the runs of {src} failed:\n{done.stderr}")
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time each stage of check in two source trees.")
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
            pages_path = os.path.join(work, "pages.json")
            sinks = write_pages(pages_path)
            # best[tree][page][stage], in nanoseconds
            best = [None, None]
            for round_ in range(args.rounds):
                order = (0, 1) if round_ % 2 == 0 else (1, 0)
                for tree in order:
                    times = run_tree(trees[tree], pages_path,
                                     os.path.join(work, "out.json"))
                    best[tree] = times if best[tree] is None else [
                        list(map(min, a, b)) for a, b in zip(best[tree], times)]
        except TreeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    small = [i for i, count in enumerate(sinks) if count < max(sinks)]
    large = sinks.index(max(sinks))
    groups = ((f"{len(small)} pages of {sinks[small[0]]} sinks, mean", small),
              (f"1 page of {sinks[large]} sinks", [large]))
    print(f"best of {args.rounds} rounds, ms")
    for title, pages in groups:
        print(f"\n{title}\n{'stage':<16}{'old':>9}{'new':>9}{'new/old':>9}")
        for stage, name in enumerate(STAGES):
            old, new = (sum(best[tree][page][stage] for page in pages)
                        / len(pages) / 1e6 for tree in (0, 1))
            print(f"{name:<16}{old:9.3f}{new:9.3f}{new / old:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
