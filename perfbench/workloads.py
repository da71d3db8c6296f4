"""The benchmark's workloads: which commands run, with which inputs.

Every workload pins ``--engine numpy`` (the production engine; the
``fast`` default needs minutes for a cold ``study run all``) and drives
load from one process with ``jobs=1``.  BENCHMARK.json repeats the inputs
and says why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: The paper's campaign master seed; ``--master-seed`` overrides it.
DEFAULT_SEED = 20160605

#: Closed-loop warm operations per repetition: at least ten samples lie
#: beyond p90.
WARM_SAMPLES = 200

ENGINE_ARGS = ("--engine", "numpy", "--jobs", "1")

#: ``repro serve`` flags: one job at a time, drained inline by its thread.
SERVE_ARGS = ("--port", "0", "--concurrency", "1", "--jobs", "1")

QUERIES = (("query", "runs"), ("query", "compare", "rm", "hrp"))

#: Rounds of QUERIES per repetition, spread through the warm loop;
#: query_ms is their mean.
QUERY_ROUNDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    #: Studies the cold operation runs (for ``service``: whose specs it submits).
    studies: Tuple[str, ...]
    runs: int
    #: The study the warm closed loop resubmits.
    warm_study: str
    #: Nominal seconds of one repetition on a quiet 2-CPU host.  It fixes
    #: how many repetitions fit in ``--seconds``, so the count never depends
    #: on how fast the host happens to run.
    rep_s: float = 15.0
    #: True: the cold operation is a job submitted to ``repro serve``.
    served: bool = False

    def study_args(self, study: str, seed: int, store: str) -> list:
        return [
            "study", "run", study, "--runs", str(self.runs), "--seed", str(seed),
            *ENGINE_ARGS, "--store", store,
        ]

    def describe(self) -> str:
        if self.served:
            cold = (
                f"repro serve {' '.join(SERVE_ARGS)}; POST the {self.warm_study} "
                f"specs (in the order --seed picks) at --runs {self.runs} and follow "
                "the SSE stream"
            )
            warm = f"{WARM_SAMPLES} x resubmit of the same specs"
        else:
            cold = (
                f"study run {' '.join(self.studies)} (in the order --seed picks) "
                f"--runs {self.runs} {' '.join(ENGINE_ARGS)}"
            )
            warm = f"{WARM_SAMPLES} x study run {self.warm_study}"
        queries = " + ".join(" ".join(query) for query in QUERIES)
        return (
            f"{cold}; then a warm loop of {warm}, with {QUERY_ROUNDS} rounds of "
            f"{queries} (--refresh after the first) spread through it"
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "cold_seeds",
            studies=(
                "table1", "table2", "fig1", "fig4a", "fig5",
                "avg_perf", "ablation_seg", "ablation_repl",
            ),
            runs=1000,
            warm_study="fig5",
        ),
        Workload("cold_layouts", studies=("fig4b",), runs=40, warm_study="fig4b"),
        Workload(
            "service", studies=("fig5",), runs=1000, warm_study="fig5", rep_s=20.0, served=True
        ),
    )
}
