"""Wall-clock cost of ``jobs`` for one measurement campaign.

Runs the same ``run_all``-class workload — a 300-run MBPTA campaign of one
EEMBC stand-in on the Random Modulo platform — through
``execute_scenarios`` at several ``jobs`` settings, each on a fresh result
store.  ``jobs=1`` drains the campaign inline as one engine batch; any
other value sends it through the store's work queue as equal shards of at
most ``DEFAULT_SHARD_SIZE`` (1,024) runs, none wider than an even split
over the workers, drained by that many worker processes.  Every campaign
is checked bit-exact against the ``jobs=1`` one, and the script exits
non-zero on a divergence.

Each shard is one engine batch, and a numpy batch pays a fixed cost per
plan step whatever its width, so whether workers pay off depends on the
campaign.  On a 2-CPU container (Python 3.11, numpy 2.4.6; medians of
three) this script's ``a2time`` campaign took 0.16 s inline and 0.13 s at
``jobs=2`` (300 runs; 0.22 s and 0.18 s at 1,000 runs), and ``study run
fig5 --runs 1000`` on a fresh store, whose batches cost more per plan
step, took 2.2 s with ``--jobs 1`` and 2.1 s with ``--jobs 2`` (two
shards of 500 runs per campaign; 2.5 s in eight shards of 250 runs when
shards were capped at 256 runs, 14.6 s when they were capped at 32).

Usage::

    python benchmarks/bench_parallel_scaling.py
    python benchmarks/bench_parallel_scaling.py --runs 300 --jobs 1 2 4 8
    REPRO_RUNS=1000 python benchmarks/bench_parallel_scaling.py
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time
from dataclasses import replace

from repro.analysis.report import format_table
from repro.study import HierarchySpec, ResultStore, Scenario, WorkloadSpec, execute_scenarios

MASTER_SEED = 20160605


def measure(scenario: Scenario) -> tuple[float, list[int]]:
    """Seconds and execution times of ``scenario`` on a fresh store."""
    with tempfile.TemporaryDirectory() as root:
        start = time.perf_counter()
        results = execute_scenarios([scenario], store=ResultStore(root))
        seconds = time.perf_counter() - start
    return seconds, next(iter(results)).campaign.execution_times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="a2time", help="EEMBC stand-in to measure")
    parser.add_argument(
        "--runs",
        type=int,
        default=int(os.environ.get("REPRO_RUNS", "300")),
        help="measurement runs per campaign (default 300, the run_all size)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="jobs values to sweep (1 is the inline baseline)",
    )
    args = parser.parse_args()

    scenario = Scenario(
        workload=WorkloadSpec.eembc(args.benchmark),
        hierarchy=HierarchySpec.named("rm"),
        runs=args.runs,
        master_seed=MASTER_SEED,
    )
    print(
        f"campaign: {args.benchmark}, {len(scenario.workload.build_trace())} "
        f"accesses/run, {args.runs} runs, {os.cpu_count()} CPUs visible"
    )

    inline_seconds, inline_times = measure(scenario)
    rows = [("1 (inline)", f"{inline_seconds:.2f}", "1.00x", "yes")]
    for jobs in args.jobs:
        if jobs == 1:
            continue
        seconds, times = measure(replace(scenario, jobs=jobs))
        rows.append(
            (
                str(jobs),
                f"{seconds:.2f}",
                f"{inline_seconds / seconds:.2f}x",
                "yes" if times == inline_times else "NO",
            )
        )
    print(format_table(["jobs", "seconds", "speedup", "bit-exact"], rows,
                       title="Campaign wall clock by jobs"))
    if any(row[3] == "NO" for row in rows):
        raise SystemExit("queued campaign diverged from the inline baseline")


if __name__ == "__main__":
    main()
