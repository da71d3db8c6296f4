"""Steadiness mode: repeat the benchmark over seeds and report each spread.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 1]

Runs the command in BENCHMARK.json once per seed (``--trace 0``, its
``run_seconds``) and prints, per end-to-end metric, the median and
quartiles of the runs (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median`` beside the metric's bound.  A spread below a
third of the bound is steady; one above the bound fails the benchmark's
own acceptance rule.  Raw results go to ``perfbench/.work/steady-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    (HERE / ".work").mkdir(exist_ok=True)
    worst = 0.0
    for name in args.workload or names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            completed = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, timeout=180
            )
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {completed.returncode}", file=sys.stderr)
                print(completed.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            results.append(result)
            print(
                f"{name} seed {seed}: correct {result['correct']}, "
                f"{result['failed']}/{result['attempted']} failed",
                flush=True,
            )
        (HERE / ".work" / f"steady-{name}.json").write_text(json.dumps(results, indent=1))
        print(f"{name}: {len(results)} runs")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            values = [result["metrics"][metric["name"]]["value"] for result in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
            flag = "" if spread < metric["bound"] / 3 else "  <- above a third of the bound"
            print(
                f"  {metric['name']:<20} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                f"{spread:>8.4f} {metric['bound']:>6}{flag}"
            )
    print(f"largest spread / bound (setup_s aside): {worst:.3f}")
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
