"""Trace-driven in-order timing core.

The paper measures end-to-end execution times of programs on a LEON3.  When
a workload is available as a memory-access :class:`~repro.cpu.trace.Trace`
(either generated directly by the workload layer or recorded by the TISA
interpreter), this core replays it against a cache hierarchy and produces
the execution time in cycles.

Back-ends are selected by registry name through :mod:`repro.engine`
(``"numpy"``, the default, ``"reference"``, plus anything registered
later); :meth:`TraceDrivenCore.run` and :meth:`TraceDrivenCore.run_batch`
resolve the name, build (and cache) the engine's simulator for this
(config, trace) pair, and add the same per-instruction execute cost on top
of the raw memory latencies — so all engines produce identical cycle counts
for identical seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Union

from ..cache.fastsim import CompiledTrace, FastRunResult
from ..cache.hierarchy import HierarchyConfig
from ..engine import DEFAULT_ENGINE, Engine, EngineSimulator, get_engine
from .trace import Trace

#: Engine selector: a registry name, or an already-resolved Engine (used by
#: the parallel executor, which resolves names in the parent process).
EngineLike = Union[str, Engine]

__all__ = [
    "ExecutionTimingModel",
    "TraceRunResult",
    "TraceDrivenCore",
    "timing_overhead_cycles",
    "wrap_fast_result",
]


@dataclass(frozen=True)
class ExecutionTimingModel:
    """Fixed per-access execute-stage costs added on top of memory latency.

    ``fetch_overhead`` models decode/execute cycles per instruction;
    ``data_overhead`` models the address-generation cycle of loads/stores.
    Setting both to zero yields a pure memory-latency model.
    """

    fetch_overhead: int = 0
    data_overhead: int = 0


@dataclass(frozen=True)
class TraceRunResult:
    """Execution time plus the underlying cache statistics of one run."""

    cycles: int
    memory_accesses: int
    il1_misses: int
    dl1_misses: int
    l2_misses: int
    accesses: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "cycles": self.cycles,
            "memory_accesses": self.memory_accesses,
            "il1_misses": self.il1_misses,
            "dl1_misses": self.dl1_misses,
            "l2_misses": self.l2_misses,
            "accesses": self.accesses,
        }


def timing_overhead_cycles(trace: Trace, timing: ExecutionTimingModel) -> int:
    """Execute-stage cycles added on top of the memory latencies of ``trace``.

    Shared by :class:`TraceDrivenCore` and the parallel campaign executor so
    the two always add the same overhead to the raw engine cycles.
    """
    counts = trace.counts()
    return (
        counts["fetches"] * timing.fetch_overhead
        + (counts["loads"] + counts["stores"]) * timing.data_overhead
    )


def wrap_fast_result(
    result: FastRunResult, overhead_cycles: int, accesses: int
) -> TraceRunResult:
    """Convert a raw engine result into a :class:`TraceRunResult`."""
    return TraceRunResult(
        cycles=result.cycles + overhead_cycles,
        memory_accesses=result.memory_accesses,
        il1_misses=result.il1_misses,
        dl1_misses=result.dl1_misses,
        l2_misses=result.l2_misses,
        accesses=accesses,
    )


class TraceDrivenCore:
    """Replays one trace on one hierarchy configuration, many times."""

    def __init__(
        self,
        config: HierarchyConfig,
        trace: Trace,
        timing: ExecutionTimingModel = ExecutionTimingModel(),
        compiled: CompiledTrace | None = None,
    ) -> None:
        """``compiled`` optionally injects an already-compiled trace.

        Trace compilation only depends on the L1 line size, so callers
        replaying one workload on several hierarchies (the study runner)
        compile once and share; a line-size mismatch is rejected.
        """
        if compiled is not None and compiled.line_size != config.il1.line_size:
            raise ValueError(
                f"compiled trace has line size {compiled.line_size}, "
                f"hierarchy expects {config.il1.line_size}"
            )
        self.config = config
        self.trace = trace
        self.timing = timing
        self._compiled: CompiledTrace | None = compiled
        self._simulators: Dict[str, EngineSimulator] = {}
        self._overhead_cycles = timing_overhead_cycles(trace, timing)

    # --------------------------------------------------------------- engines

    def _simulator(self, engine: EngineLike) -> EngineSimulator:
        """The (cached) simulator of the selected engine for this core's trace."""
        backend = get_engine(engine) if isinstance(engine, str) else engine
        simulator = self._simulators.get(backend.name)
        if simulator is None:
            if self._compiled is None:
                self._compiled = CompiledTrace(
                    self.trace, line_size=self.config.il1.line_size
                )
            simulator = backend.simulator(self.config, self._compiled)
            self._simulators[backend.name] = simulator
        return simulator

    def _wrap(self, result: FastRunResult) -> TraceRunResult:
        return wrap_fast_result(result, self._overhead_cycles, len(self.trace))

    def run(self, seed: int, engine: EngineLike = DEFAULT_ENGINE) -> TraceRunResult:
        """Replay the trace with the selected engine under hierarchy seed ``seed``."""
        return self._wrap(self._simulator(engine).run(seed))

    def run_batch(
        self, seeds: Sequence[int], engine: EngineLike = DEFAULT_ENGINE
    ) -> List[TraceRunResult]:
        """Replay the trace once per seed, setting the engine up only once."""
        simulator = self._simulator(engine)
        return [self._wrap(result) for result in simulator.run_batch(seeds)]

    def run_reference(self, seed: int) -> TraceRunResult:
        """Replay the trace with the reference hierarchy model."""
        return self.run(seed, engine="reference")
