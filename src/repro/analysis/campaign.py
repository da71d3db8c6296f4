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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cache.fastsim import FETCH_KIND, CompiledTrace
from ..cache.hierarchy import HierarchyConfig
from ..cache.trace import Trace
from ..core.prng import derive_run_seeds
from ..engine import DEFAULT_ENGINE, get_engine
from ..workloads.base import MemoryLayout, random_layouts, relocate_trace

__all__ = [
    "MISS_COUNTERS",
    "CampaignResult",
    "run_campaign",
    "run_layout_campaign",
    "summarize_misses",
]

#: The per-run counters a miss summary averages, in its key order.
MISS_COUNTERS = ("il1_misses", "dl1_misses", "l2_misses", "memory_accesses")


@dataclass
class CampaignResult:
    """Execution times and the per-level miss summary of one campaign.

    ``miss_summary`` is :func:`summarize_misses` of the campaign's per-run
    counters; it is empty for layout campaigns, which keep cycles only.
    """

    workload: str
    setup: str
    execution_times: List[int]
    master_seed: int = 0
    miss_summary: Dict[str, float] = field(default_factory=dict)

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


def summarize_misses(counters: Dict[str, Sequence[int]], runs: int) -> Dict[str, float]:
    """Average per-run miss counts and per-level miss rates of ``runs`` runs.

    ``counters`` maps each name of :data:`MISS_COUNTERS` to its per-run
    values (a list, or an integer column of a stored range).  The integer
    sums are divided once, so any partition of the runs into shards
    summarizes to the same floats.  Each
    ``<level>_miss_rate`` is that level's misses per *main-memory access*
    (``memory_accesses``: L2 misses and writebacks, or next-level accesses
    without an L2), not per access to the level, so an L1 rate can exceed
    1 when the L2 absorbs most L1 misses.  (The engine's
    :class:`~repro.cache.fastsim.FastRunResult` ``*_miss_rate`` properties
    divide by the level's own accesses instead.)  Returns ``{}`` unless
    every counter has one value per run: layout campaigns keep no counters.
    """
    if not all(len(counters.get(name, ())) == runs for name in MISS_COUNTERS):
        return {}
    summary = {name: int(np.sum(counters[name])) / runs for name in MISS_COUNTERS}
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
) -> CampaignResult:
    """Measure ``trace`` on ``config`` for ``runs`` runs with fresh seeds.

    Per-run seeds are derived deterministically from ``master_seed``, so the
    campaign (and everything downstream: i.i.d. tests, pWCET estimates) is
    exactly reproducible.

    ``engine`` names a registered simulation backend (see
    :func:`repro.engine.available_engines`); every bit-exact engine returns
    identical campaigns, so the knob only trades wall-clock time.  This is
    the serial primitive; :func:`repro.study.execute_scenarios` runs the
    same campaign as lane-range shards, in its own process or across
    worker processes, with bit-identical results.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    backend = get_engine(engine)  # reject unknown engines before any work
    compiled = CompiledTrace(trace, line_size=config.il1.line_size)
    results = backend.simulator(config, compiled).run_batch(
        derive_run_seeds(master_seed, runs)
    )
    counters = {
        name: [getattr(result, name) for result in results] for name in MISS_COUNTERS
    }
    return CampaignResult(
        workload=trace.name,
        setup=setup or f"{config.il1.placement}/{config.il1.replacement}",
        execution_times=[result.cycles for result in results],
        master_seed=master_seed,
        miss_summary=summarize_misses(counters, runs),
    )


def run_layout_campaign(
    trace: Trace,
    config: HierarchyConfig,
    runs: int,
    master_seed: int = 0,
    setup: str = "deterministic",
    layouts: Optional[Sequence[MemoryLayout]] = None,
    engine: str = DEFAULT_ENGINE,
) -> CampaignResult:
    """Measure a workload on a deterministic platform under varying layouts.

    ``trace`` is the workload's trace at ``MemoryLayout()``.  If ``layouts``
    is not given, ``runs`` layouts with randomly shifted segments are
    generated from ``master_seed``.  The cache seed is fixed (deterministic
    placement ignores it, and LRU replacement has no randomness), so all
    execution-time variability comes from the memory layout — exactly the
    situation the industrial high-water-mark practice faces.

    A layout moves the code segment by its code shift and the data segment
    by its data shift (:func:`~repro.workloads.base.relocate_trace`), so
    every layout is the one trace with a relocated table of line
    addresses.  Layouts whose shifts agree modulo the line size share line
    identity; each such alignment class compiles the trace once and runs
    all its layouts as the lanes of one engine batch.  A layout under which
    a code line and a data line coincide raises :class:`ValueError`: a
    rebuilt trace would merge the two lines, and a relocated table cannot.
    This is the serial primitive the exec layer's
    :class:`~repro.exec.worker.ShardRunner` runs on each layout range.
    """
    if layouts is None:
        if runs < 1:
            raise ValueError(f"runs must be >= 1, got {runs}")
        layouts = random_layouts(runs, master_seed=master_seed)
    backend = get_engine(engine)  # reject unknown engines before any work
    line_size = config.il1.line_size
    base = MemoryLayout()
    shifts = [
        (layout.code_base - base.code_base, layout.data_base - base.data_base)
        for layout in layouts
    ]
    classes: Dict[Tuple[int, int], List[int]] = {}
    for index, (code, data) in enumerate(shifts):
        classes.setdefault((code % line_size, data % line_size), []).append(index)
    execution_times = [0] * len(layouts)
    for residue, members in classes.items():
        compiled = CompiledTrace(relocate_trace(trace, *residue), line_size=line_size)
        lines = _relocated_lines(
            compiled,
            [(shifts[i][0] - residue[0], shifts[i][1] - residue[1]) for i in members],
            members,
        )
        simulator = backend.simulator(config, compiled)
        for index, result in zip(members, simulator.run_batch([0] * len(members), lines=lines)):
            execution_times[index] = result.cycles
    return CampaignResult(
        workload=trace.name,
        setup=setup,
        execution_times=execution_times,
        master_seed=master_seed,
    )


def _relocated_lines(
    compiled: CompiledTrace, shifts: Sequence[Tuple[int, int]], indices: Sequence[int]
) -> np.ndarray:
    """Per-lane line tables: ``compiled``'s unique lines moved by each shift.

    A line touched by a fetch is a code line and moves by the code shift;
    every other line is a data line and moves by the data shift.  The
    shifts are multiples of the line size, so the tables stay line-aligned.
    Raises :class:`ValueError` (naming the layout's entry of ``indices``)
    where the relocated table cannot stand for the rebuilt trace: a code
    line and a data line coincide, or a line touched by both fetches and
    data accesses would be split by unequal shifts.
    """
    unique = compiled.unique_lines
    fetches = compiled.kinds == FETCH_KIND
    code = np.zeros(unique.size, dtype=bool)
    code[compiled.line_ids[fetches]] = True
    data = np.zeros(unique.size, dtype=bool)
    data[compiled.line_ids[~fetches]] = True
    moves = np.array(shifts, dtype=np.int64).reshape(-1, 2)
    tables = (unique[None, :] + np.where(code, moves[:, :1], moves[:, 1:])) & 0xFFFFFFFF
    ordered = np.sort(tables, axis=1)
    merged = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    split = (moves[:, 0] != moves[:, 1]) & bool((code & data).any())
    bad = np.nonzero(merged | split)[0]
    if bad.size:
        lane = bad[0]
        what = (
            "splits a line that code and data share"
            if split[lane]
            else "makes a code line and a data line coincide"
        )
        raise ValueError(
            f"layout #{indices[lane]} {what}; a relocated line table cannot "
            "represent it"
        )
    return tables.astype(np.uint64)
