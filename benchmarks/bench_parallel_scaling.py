"""Wall-clock cost of ``jobs`` for one campaign and for a study's campaigns.

Runs two workloads through ``execute_scenarios`` at several ``jobs``
settings, each on a fresh result store:

* one 300-run MBPTA campaign of one EEMBC stand-in on the Random Modulo
  platform (the ``run_all`` size);
* the 8 campaigns of the ``ablation_seg`` study, in one call, as ``study
  run`` executes them.

``jobs=1`` drains the call's campaigns inline, each as one engine batch;
any other value sends them through the store's work queue, where one set
of ``jobs`` worker processes drains the call's campaigns together.  A
campaign is one shard of at most ``DEFAULT_SHARD_SIZE`` (1,024) runs, so
each worker runs whole campaigns; only a call with fewer campaigns than
workers splits its campaigns into equal shards, one per worker.  Every
campaign is checked bit-exact against the ``jobs=1`` one, and the script
exits non-zero on a divergence.

A numpy batch pays a fixed cost per plan step whatever its width, so a
split campaign gains less than its number of workers, while whole
campaigns per worker keep each batch full.  On a 2-CPU container (Python
3.11, numpy 2.4.6; medians of three, 300 runs) the ``a2time`` campaign
took 0.07 s inline and 0.15 s at ``jobs=2`` (starting the workers costs
more than the campaign), and ``ablation_seg``'s 8 campaigns took 2.84 s
inline and 1.69 s at ``jobs=2``.

Usage::

    python benchmarks/bench_parallel_scaling.py
    python benchmarks/bench_parallel_scaling.py --runs 300 --jobs 1 2 4 8
    REPRO_RUNS=1000 python benchmarks/bench_parallel_scaling.py
"""

from __future__ import annotations

import argparse
import os
import statistics
import tempfile
import time
from typing import List, Sequence, Tuple

from repro.analysis.experiments import ExperimentSettings
from repro.analysis.report import format_table
from repro.study import (
    HierarchySpec,
    ResultStore,
    Scenario,
    WorkloadSpec,
    execute_scenarios,
    get_study,
)

MASTER_SEED = 20160605

#: Timings per cell; the table shows their median.
REPEATS = 3


def measure(scenarios: Sequence[Scenario], jobs: int) -> Tuple[float, List[List[int]]]:
    """Seconds and execution times of one call over ``scenarios`` on a
    fresh store."""
    with tempfile.TemporaryDirectory() as root:
        start = time.perf_counter()
        results = execute_scenarios(scenarios, store=ResultStore(root), jobs=jobs)
        seconds = time.perf_counter() - start
    return seconds, [outcome.campaign.execution_times for outcome in results]


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

    campaign = Scenario(
        workload=WorkloadSpec.eembc(args.benchmark),
        hierarchy=HierarchySpec.named("rm"),
        runs=args.runs,
        master_seed=MASTER_SEED,
    )
    study = get_study("ablation_seg").plan(
        ExperimentSettings(runs=args.runs, master_seed=MASTER_SEED)
    )
    calls = [
        (f"{args.benchmark} (1 campaign)", [campaign]),
        (f"ablation_seg ({len(study)} campaigns)", study),
    ]
    print(f"{args.runs} runs per campaign, {os.cpu_count()} CPUs visible")

    rows = []
    for name, scenarios in calls:
        inline_seconds, inline_times = 0.0, None
        for jobs in [1] + [jobs for jobs in args.jobs if jobs != 1]:
            timings, exact = [], True
            for _ in range(REPEATS):
                seconds, times = measure(scenarios, jobs)
                timings.append(seconds)
                inline_times = inline_times or times
                exact &= times == inline_times
            seconds = statistics.median(timings)
            inline_seconds = inline_seconds or seconds
            rows.append(
                (
                    name,
                    "1 (inline)" if jobs == 1 else str(jobs),
                    f"{seconds:.2f}",
                    f"{inline_seconds / seconds:.2f}x",
                    "yes" if exact else "NO",
                )
            )
    print(format_table(["call", "jobs", "seconds", "speedup", "bit-exact"], rows,
                       title="Call wall clock by jobs"))
    if any(row[4] == "NO" for row in rows):
        raise SystemExit("queued campaigns diverged from the inline baseline")


if __name__ == "__main__":
    main()
