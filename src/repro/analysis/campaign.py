"""Measurement campaigns.

A *campaign* is the measurement-collection phase of MBPTA: the same program
(trace) is executed many times on the target platform, each run with a fresh
random seed, and the end-to-end execution times are recorded.  For the
deterministic baseline the seed is irrelevant, so the campaign instead varies
the memory layout across runs, emulating the stressing conditions of the
industrial high-water-mark practice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..cache.hierarchy import HierarchyConfig
from ..core.prng import derive_run_seeds
from ..cpu.core import ExecutionTimingModel, TraceDrivenCore, TraceRunResult
from ..cpu.trace import Trace
from ..engine import DEFAULT_ENGINE, get_engine
from ..workloads.base import MemoryLayout, random_layouts

__all__ = ["CampaignResult", "run_campaign", "run_layout_campaign"]


@dataclass
class CampaignResult:
    """Execution times (and cache statistics) of one measurement campaign."""

    workload: str
    setup: str
    execution_times: List[int]
    run_results: List[TraceRunResult] = field(default_factory=list)
    master_seed: int = 0

    def __post_init__(self) -> None:
        if not self.execution_times:
            raise ValueError(
                f"campaign for workload {self.workload!r} (setup {self.setup!r}) "
                "has no execution times; a CampaignResult needs at least one run"
            )

    @property
    def runs(self) -> int:
        return len(self.execution_times)

    @property
    def high_water_mark(self) -> int:
        """Largest observed execution time."""
        return max(self.execution_times)

    @property
    def minimum(self) -> int:
        return min(self.execution_times)

    @property
    def mean(self) -> float:
        return sum(self.execution_times) / len(self.execution_times)

    def miss_summary(self) -> Dict[str, float]:
        """Average per-run miss counts and per-level miss rates.

        Rates are normalised by the per-run memory accesses (``*_miss_rate``
        keys), so they are comparable across workloads of different trace
        lengths.  Empty if detailed run results were not kept.
        """
        if not self.run_results:
            return {}
        n = len(self.run_results)
        summary = {
            "il1_misses": sum(r.il1_misses for r in self.run_results) / n,
            "dl1_misses": sum(r.dl1_misses for r in self.run_results) / n,
            "l2_misses": sum(r.l2_misses for r in self.run_results) / n,
            "memory_accesses": sum(r.memory_accesses for r in self.run_results) / n,
        }
        accesses = summary["memory_accesses"]
        for level in ("il1", "dl1", "l2"):
            summary[f"{level}_miss_rate"] = (
                summary[f"{level}_misses"] / accesses if accesses else 0.0
            )
        return summary


def run_campaign(
    trace: Trace,
    config: HierarchyConfig,
    runs: int,
    master_seed: int = 0,
    setup: str = "",
    engine: str = DEFAULT_ENGINE,
    timing: ExecutionTimingModel = ExecutionTimingModel(),
    keep_run_results: bool = False,
) -> CampaignResult:
    """Measure ``trace`` on ``config`` for ``runs`` runs with fresh seeds.

    Per-run seeds are derived deterministically from ``master_seed``, so the
    campaign (and everything downstream: i.i.d. tests, pWCET estimates) is
    exactly reproducible.

    ``engine`` names a registered simulation backend (see
    :func:`repro.engine.available_engines`); every bit-exact engine returns
    identical campaigns, so the knob only trades wall-clock time.  This is
    the serial primitive; :func:`repro.study.execute_scenarios` runs the
    same campaign as a lane range, inline or across worker processes, with
    bit-identical results.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    core = TraceDrivenCore(config, trace, timing=timing)
    seeds = derive_run_seeds(master_seed, runs)
    results = core.run_batch(seeds, engine=engine)
    return CampaignResult(
        workload=trace.name,
        setup=setup or f"{config.il1.placement}/{config.il1.replacement}",
        execution_times=[result.cycles for result in results],
        run_results=list(results) if keep_run_results else [],
        master_seed=master_seed,
    )


def run_layout_campaign(
    trace_builder: Callable[[MemoryLayout], Trace],
    config: HierarchyConfig,
    runs: int,
    master_seed: int = 0,
    setup: str = "deterministic",
    layouts: Optional[Sequence[MemoryLayout]] = None,
    engine: str = DEFAULT_ENGINE,
    timing: ExecutionTimingModel = ExecutionTimingModel(),
) -> CampaignResult:
    """Measure a workload on a deterministic platform under varying layouts.

    ``trace_builder`` maps a :class:`MemoryLayout` to the workload's trace.
    If ``layouts`` is not given, ``runs`` layouts with randomly shifted
    segments are generated from ``master_seed``.  The cache seed is fixed
    (deterministic placement ignores it, and LRU replacement has no
    randomness), so all execution-time variability comes from the memory
    layout — exactly the situation the industrial high-water-mark practice
    faces.  This is the serial primitive the exec layer's
    :class:`~repro.exec.worker.ShardRunner` runs on each layout range.
    """
    if layouts is None:
        if runs < 1:
            raise ValueError(f"runs must be >= 1, got {runs}")
        layouts = random_layouts(runs, master_seed=master_seed)
    get_engine(engine)  # reject unknown engines before any simulation work
    execution_times: List[int] = []
    name = ""
    for layout in layouts:
        trace = trace_builder(layout)
        name = trace.name
        core = TraceDrivenCore(config, trace, timing=timing)
        result = core.run(0, engine=engine)
        execution_times.append(result.cycles)
    return CampaignResult(
        workload=name,
        setup=setup,
        execution_times=execution_times,
        master_seed=master_seed,
    )
