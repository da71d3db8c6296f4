"""In-process worker pool: the non-persistent execution tier.

This module is the process-pool tier of :mod:`repro.exec` — the machinery
that used to live in :mod:`repro.analysis.parallel` (which now delegates
here).  ``run_campaign(..., jobs=N)`` routes through it: the campaign's
seed list is partitioned by the shard planner (:func:`~repro.exec.plan
.plan_shards`), one pool task executes one shard, and results are
reassembled in seed order, so the returned campaign is **bit-exact** with
serial execution for any worker count and shard size.  No queue directory
or store is involved; for persistent, crash-resumable execution see
:mod:`repro.exec.executor`.

MBPTA campaigns are embarrassingly parallel by construction: every run gets
an independent per-run seed derived deterministically from the campaign
master seed, and runs never share cache state.  Engine selection happens
**by registry name in the parent** (:func:`repro.engine.get_engine`, so
unknown names fail fast with the registered list); the *resolved*
:class:`~repro.engine.Engine` object is then shipped to each worker
alongside the picklable inputs, and the worker rebuilds that engine's
simulator locally.  Shipping the object rather than the name means
user-registered engines work under spawn-based start methods too, where
workers re-import :mod:`repro.engine` and would only see the built-ins.

The same pool parallelises deterministic layout campaigns
(:func:`repro.analysis.campaign.run_layout_campaign`): there the unit of
work is one :class:`~repro.workloads.base.MemoryLayout`, for which the
worker rebuilds the trace and replays it with the fixed seed 0.  The
``trace_builder`` shipped to the workers must be picklable under
spawn-based multiprocessing start methods.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from ..analysis.campaign import CampaignResult
from ..cache.fastsim import CompiledTrace, FastRunResult
from ..cache.hierarchy import HierarchyConfig
from ..core.prng import derive_run_seeds
from ..cpu.core import (
    ExecutionTimingModel,
    TraceDrivenCore,
    TraceRunResult,
    timing_overhead_cycles,
    wrap_fast_result,
)
from ..cpu.trace import Trace
from ..engine import DEFAULT_ENGINE, Engine, EngineSimulator, get_engine
from ..workloads.base import MemoryLayout
from .plan import plan_shards, resolve_jobs, resolve_shard_size

__all__ = [
    "partition_chunks",
    "run_campaign_parallel",
    "run_layout_campaign_parallel",
]

_T = TypeVar("_T")


def partition_chunks(
    items: Sequence[_T], jobs: int, chunk_size: Optional[int] = None
) -> List[Tuple[int, List[_T]]]:
    """Split ``items`` into contiguous ``(start_index, chunk)`` pairs.

    Chunk sizing follows the shard planner's heuristic
    (:func:`~repro.exec.plan.resolve_shard_size`): about four chunks per
    worker, capped so stragglers balance without drowning the pool in tiny
    tasks.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    chunk_size = resolve_shard_size(len(items), jobs, chunk_size)
    return [
        (start, list(items[start : start + chunk_size]))
        for start in range(0, len(items), chunk_size)
    ]


# ---------------------------------------------------------------------------
# Worker-side state and entry points
#
# Each worker receives its inputs once, through the pool initializer, and
# keeps the built simulator in module globals; per-task payloads are then
# just (start_index, chunk) pairs.
# ---------------------------------------------------------------------------

_worker_simulator: Optional[EngineSimulator] = None
_worker_layout_state: Optional[
    Tuple[Callable, HierarchyConfig, ExecutionTimingModel, Engine]
] = None


def _init_seed_worker(
    config: HierarchyConfig, compiled: CompiledTrace, engine: Engine
) -> None:
    global _worker_simulator
    _worker_simulator = engine.simulator(config, compiled)


def _run_seed_chunk(chunk: Tuple[int, List[int]]) -> Tuple[int, List[FastRunResult]]:
    start, seeds = chunk
    assert _worker_simulator is not None, "worker initializer did not run"
    return start, _worker_simulator.run_batch(seeds)


def _init_layout_worker(
    trace_builder: Callable[[MemoryLayout], Trace],
    config: HierarchyConfig,
    timing: ExecutionTimingModel,
    engine: Engine,
) -> None:
    global _worker_layout_state
    _worker_layout_state = (trace_builder, config, timing, engine)


def _run_layout_chunk(
    chunk: Tuple[int, List[MemoryLayout]]
) -> Tuple[int, str, List[int]]:
    start, layouts = chunk
    assert _worker_layout_state is not None, "worker initializer did not run"
    trace_builder, config, timing, engine = _worker_layout_state
    name = ""
    cycles: List[int] = []
    for layout in layouts:
        trace = trace_builder(layout)
        name = trace.name
        core = TraceDrivenCore(config, trace, timing=timing)
        cycles.append(core.run(0, engine=engine).cycles)
    return start, name, cycles


# ---------------------------------------------------------------------------
# Campaign executors
# ---------------------------------------------------------------------------

def run_campaign_parallel(
    trace: Trace,
    config: HierarchyConfig,
    runs: int,
    master_seed: int = 0,
    setup: str = "",
    engine: str = DEFAULT_ENGINE,
    timing: ExecutionTimingModel = ExecutionTimingModel(),
    keep_run_results: bool = False,
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> CampaignResult:
    """Pool-parallel, bit-exact equivalent of :func:`~repro.analysis.campaign.run_campaign`.

    The per-run seed list is derived up front (it only depends on
    ``master_seed``), split by the shard planner into contiguous seed
    ranges, and distributed over ``jobs`` worker processes.  Results are
    reassembled in seed order, so the returned :class:`CampaignResult` is
    identical to the serial one.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    # Resolve in the parent (unknown names fail with the registry's listing);
    # the resolved engine object is what gets shipped to the workers.
    backend = get_engine(engine)
    jobs = min(resolve_jobs(jobs), runs)
    seeds = derive_run_seeds(master_seed, runs)
    overhead_cycles = timing_overhead_cycles(trace, timing)
    accesses = len(trace)

    compiled = CompiledTrace(trace, line_size=config.il1.line_size)
    shards = plan_shards("", runs, resolve_shard_size(runs, jobs, chunk_size))
    chunks = [(shard.start, seeds[shard.start : shard.stop]) for shard in shards]
    fast_results: List[Optional[FastRunResult]] = [None] * runs
    with ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_init_seed_worker,
        initargs=(config, compiled, backend),
    ) as pool:
        for start, results in pool.map(_run_seed_chunk, chunks):
            fast_results[start : start + len(results)] = results

    execution_times = [result.cycles + overhead_cycles for result in fast_results]
    run_results: List[TraceRunResult] = []
    if keep_run_results:
        run_results = [
            wrap_fast_result(result, overhead_cycles, accesses)
            for result in fast_results
        ]
    return CampaignResult(
        workload=trace.name,
        setup=setup or f"{config.il1.placement}/{config.il1.replacement}",
        execution_times=execution_times,
        run_results=run_results,
        master_seed=master_seed,
    )


def run_layout_campaign_parallel(
    trace_builder: Callable[[MemoryLayout], Trace],
    config: HierarchyConfig,
    layouts: Sequence[MemoryLayout],
    master_seed: int = 0,
    setup: str = "deterministic",
    engine: str = DEFAULT_ENGINE,
    timing: ExecutionTimingModel = ExecutionTimingModel(),
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> CampaignResult:
    """Pool-parallel, bit-exact equivalent of :func:`~repro.analysis.campaign.run_layout_campaign`.

    One unit of work is one memory layout: the worker rebuilds the trace for
    that layout and replays it with the fixed hierarchy seed 0 (deterministic
    platforms ignore the seed).  ``layouts`` must already be materialised so
    that serial and parallel campaigns consume the same layout sequence.
    """
    if not layouts:
        raise ValueError("layout campaign needs at least one memory layout")
    # Resolve in the parent (unknown names fail with the registry's listing);
    # the resolved engine object is what gets shipped to the workers.
    backend = get_engine(engine)
    jobs = min(resolve_jobs(jobs), len(layouts))
    chunks = partition_chunks(list(layouts), jobs, chunk_size)
    execution_times: List[Optional[int]] = [None] * len(layouts)
    name = ""
    with ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_init_layout_worker,
        initargs=(trace_builder, config, timing, backend),
    ) as pool:
        for start, chunk_name, cycles in pool.map(_run_layout_chunk, chunks):
            execution_times[start : start + len(cycles)] = cycles
            name = chunk_name
    return CampaignResult(
        workload=name,
        setup=setup,
        execution_times=list(execution_times),
        master_seed=master_seed,
    )
