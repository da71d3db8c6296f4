"""Wall-clock cost of ``jobs`` for one campaign and for a study's campaigns.

Runs two workloads through ``execute_scenarios`` at several ``jobs``
settings, each on a fresh result store:

* one 300-run MBPTA campaign of one EEMBC stand-in on the Random Modulo
  platform (the ``run_all`` size);
* the 8 campaigns of the ``ablation_seg`` study, in one call, as ``study
  run`` executes them.

Every call is one drain: its campaigns run together on ``jobs`` workers
(at ``jobs=1``, the calling process; otherwise one process pool).  A campaign is one shard of at most
``DEFAULT_SHARD_SIZE`` (1,024) runs, so each worker runs whole campaigns;
only a call with fewer campaigns than workers splits its campaigns into
equal shards, one per worker.  Every campaign at every ``jobs`` value is
checked bit-exact against its serial ``run_campaign`` (or
``run_layout_campaign``), and the script exits non-zero on a divergence.

A numpy batch pays a fixed cost per plan step whatever its width, so a
split campaign gains less than its number of workers, while whole
campaigns per worker keep each batch full.  On a 2-CPU container (Python
3.11.7, numpy 2.4.6; medians of three, 300 runs) the ``a2time`` campaign
took 0.05 s at ``jobs=1`` and 0.10 s at ``jobs=2`` (starting the workers
costs more than the campaign), and ``ablation_seg``'s 8 campaigns took
2.13 s at ``jobs=1`` and 1.37 s at ``jobs=2``.

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

from repro.analysis.campaign import run_campaign, run_layout_campaign
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


def serial_times(scenario: Scenario) -> List[int]:
    """The execution times of ``scenario`` run serially: the oracle."""
    run = run_layout_campaign if scenario.campaign == "layouts" else run_campaign
    return run(
        scenario.workload.build_trace(),
        scenario.hierarchy.config(),
        runs=scenario.runs,
        master_seed=scenario.effective_seed,
    ).execution_times


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
        help="jobs values to sweep (1, one in-process worker, is the baseline)",
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
        expected = [serial_times(scenario) for scenario in scenarios]
        baseline = 0.0
        for jobs in [1] + [jobs for jobs in args.jobs if jobs != 1]:
            timings, exact = [], True
            for _ in range(REPEATS):
                seconds, times = measure(scenarios, jobs)
                timings.append(seconds)
                exact &= times == expected
            seconds = statistics.median(timings)
            baseline = baseline or seconds
            rows.append(
                (
                    name,
                    str(jobs),
                    f"{seconds:.2f}",
                    f"{baseline / seconds:.2f}x",
                    "yes" if exact else "NO",
                )
            )
    print(format_table(["call", "jobs", "seconds", "speedup", "bit-exact"], rows,
                       title="Call wall clock by jobs"))
    if any(row[4] == "NO" for row in rows):
        raise SystemExit("a sharded campaign diverged from its serial run")


if __name__ == "__main__":
    main()
