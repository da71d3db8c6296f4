"""The lane executor: run a shard task, publish its lane range.

A shard task is self-contained JSON (:func:`shard_task`): the canonical
scenario spec, the planning scenario's display label, the engine name and
the lane range.  :class:`ShardRunner` rebuilds the simulation from it,
runs the range through the engine registry and returns the per-lane
results as the range payload that :func:`publish_shard` stores in the
:class:`~repro.study.store.ResultStore` (the store's one unit of lane
data: a campaign is stored once its ranges cover its lanes).  A lane is a
per-run seed of a seed campaign or a memory layout of a layout campaign;
one :class:`ShardRunner` executes both.  The executor
(:mod:`repro.exec.executor`) runs the tasks in its own process or on a
pool whose every worker keeps one runner (:func:`publish_in_worker`).

Engines resolve **by registry name**.  Shard execution is deterministic
and publishing is an atomic replace, so a range two processes both
execute lands as identical bytes.

``REPRO_EXEC_THROTTLE`` (seconds, float) inserts a sleep before each
shard runs — a load-shaping knob that also makes kill-mid-run scenarios
deterministic to test.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence

from ..analysis.campaign import run_layout_campaign
from ..cache.fastsim import CompiledTrace, FastRunResult
from ..cache.trace import Trace
from ..core.prng import derive_run_seeds
from ..engine import EngineSimulator, get_engine
from ..study.scenario import SPEC_VERSION, Scenario, WorkloadSpec, scenario_from_spec
from ..study.store import ResultStore
from ..workloads.base import random_layouts
from .plan import Shard

__all__ = ["ShardRunner", "publish_in_worker", "publish_shard", "shard_task"]

#: Environment knob: seconds to sleep before each shard runs (load
#: shaping / deterministic kill-testing).
THROTTLE_ENV = "REPRO_EXEC_THROTTLE"


def shard_task(scenario: Scenario, shard: Shard, engine: str) -> Dict[str, object]:
    """The self-contained JSON task :class:`ShardRunner` executes for ``shard``."""
    return {
        "version": SPEC_VERSION,
        "spec_hash": shard.spec_hash,
        "key": shard.key,
        "start": shard.start,
        "count": shard.count,
        "total": shard.total,
        "engine": engine,
        "spec": scenario.spec_dict(),
        "setup": scenario.display_label,
    }


def _shard_payload(
    task: Dict[str, object],
    workload: str,
    cycles: List[int],
    results: Sequence[FastRunResult] = (),
) -> Dict[str, object]:
    """One shard's per-lane results as the published lane range.

    The header carries the task's canonical spec and the planning
    scenario's display label.  Seed shards also carry the per-run miss
    counters the store summarizes into the campaign's miss summary; layout
    shards publish cycles only, so layout campaigns keep an empty miss
    summary.
    """
    payload: Dict[str, object] = {
        "version": SPEC_VERSION,
        "spec_hash": task["spec_hash"],
        "key": task["key"],
        "start": task["start"],
        "count": task["count"],
        "spec": task["spec"],
        "setup": task["setup"],
        "workload": workload,
        "engine": task["engine"],
        "cycles": cycles,
    }
    if results:
        payload.update(
            memory_accesses=[result.memory_accesses for result in results],
            il1_misses=[result.il1_misses for result in results],
            dl1_misses=[result.dl1_misses for result in results],
            l2_misses=[result.l2_misses for result in results],
        )
    return payload


class ShardRunner:
    """Executes shard tasks: lane ranges of seed or layout campaigns.

    A drain runs one campaign's shards back to back, and a call's campaigns
    grouped by workload, so the runner keeps only what the next shard can
    reuse: the current workload's trace and compiled traces, plus the
    current seed campaign's simulator and seed list.  A layout shard
    relocates the same cached trace per lane
    (:func:`~repro.analysis.campaign.run_layout_campaign` on its slice).
    The previous campaign's simulator is dropped before the next one is
    built, so a pool worker holds one simulator however many campaigns it
    runs.
    """

    def __init__(self) -> None:
        self._workload: Optional[WorkloadSpec] = None
        self._trace: Optional[Trace] = None
        self._compiled: Dict[int, CompiledTrace] = {}  # line size -> compiled
        self._campaign = ""  # "<spec hash>.<engine>" of the task last run
        self._simulator: Optional[EngineSimulator] = None
        self._seeds: List[int] = []

    def execute(self, task: Dict[str, object]) -> Dict[str, object]:
        """Run one task's lane range; returns the publishable range payload."""
        spec_hash = str(task["spec_hash"])
        scenario = scenario_from_spec(task["spec"])  # type: ignore[arg-type]
        if scenario.spec_hash() != spec_hash:
            raise ValueError(
                f"task spec hash {spec_hash[:12]} does not match its spec "
                "payload; refusing to execute a corrupt task"
            )
        start, count = int(task["start"]), int(task["count"])
        if start < 0 or count < 1 or start + count > scenario.runs:
            raise ValueError(
                f"shard slice [{start}, {start + count}) is outside the "
                f"campaign's {scenario.runs} runs"
            )
        engine = str(task["engine"])
        campaign = f"{spec_hash}.{engine}"
        if campaign != self._campaign:
            # Free the previous campaign's simulator before building anything.
            self._simulator, self._campaign = None, campaign
        trace = self._workload_trace(scenario.workload)
        if scenario.campaign == "layouts":
            layouts = random_layouts(scenario.runs, master_seed=scenario.effective_seed)
            measured = run_layout_campaign(
                trace,
                scenario.hierarchy.config(),
                runs=count,
                layouts=layouts[start : start + count],
                engine=engine,
            )
            return _shard_payload(task, measured.workload, measured.execution_times)
        if self._simulator is None:
            self._simulator = self._build_simulator(scenario, engine)
            self._seeds = derive_run_seeds(scenario.effective_seed, scenario.runs)
        results = self._simulator.run_batch(self._seeds[start : start + count])
        cycles = [result.cycles for result in results]
        return _shard_payload(task, trace.name, cycles, results)

    def _workload_trace(self, workload: WorkloadSpec) -> Trace:
        """The trace of ``workload``, built once for all its campaigns."""
        if workload != self._workload:
            # Free the previous workload's traces before building the next.
            self._workload, self._trace, self._compiled = None, None, {}
            self._trace = workload.build_trace()
            self._workload = workload
        return self._trace  # type: ignore[return-value]

    def _build_simulator(self, scenario: Scenario, engine: str) -> EngineSimulator:
        """A simulator for ``scenario``, reusing the workload's trace."""
        config = scenario.hierarchy.config()
        line_size = config.il1.line_size
        if line_size not in self._compiled:
            self._compiled[line_size] = CompiledTrace(self._trace, line_size=line_size)
        return get_engine(engine).simulator(config, self._compiled[line_size])


def publish_shard(runner: ShardRunner, store: ResultStore, task: Dict[str, object]) -> None:
    """Run ``task`` on ``runner`` and publish its lane range in ``store``,
    after the ``REPRO_EXEC_THROTTLE`` sleep if one is set."""
    throttle = float(os.environ.get(THROTTLE_ENV, "0") or 0)
    if throttle > 0:
        time.sleep(throttle)
    store.save_shard(str(task["spec_hash"]), str(task["key"]), runner.execute(task))


#: A pool worker's runner, kept across the tasks it runs (one per process).
_RUNNER: Optional[ShardRunner] = None


def publish_in_worker(store_root: str, task: Dict[str, object]) -> None:
    """:func:`publish_shard` on this pool worker's runner."""
    global _RUNNER
    if _RUNNER is None:
        _RUNNER = ShardRunner()
    publish_shard(_RUNNER, ResultStore(store_root), task)
