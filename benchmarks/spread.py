"""Run the benchmark once per seed and report each metric's spread.

    python3 benchmarks/spread.py --workload dense-page --seeds 1-10 \\
        --seconds 30 --trace 0 --out results.json

Runs are sequential.  For every metric it prints the median and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, which is how run-to-run spread is judged
against the bounds in BENCHMARK.json.  ``--out`` keeps the raw results.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds(spec: str) -> list:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    runs = []
    for seed in seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            capture_output=True, text=True, timeout=600, check=True)
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        result["detail"] = json.loads(lines[-2])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(runs, handle, indent=1)
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median if median else float("nan")
        print(f"{name:40s} median {median:12.6g} {first['unit']:8s} "
              f"q1 {q1:12.6g} q3 {q3:12.6g} spread {share:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
