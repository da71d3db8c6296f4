"""Shard workers: claim, execute, publish.

A worker is a claim loop over a :class:`~repro.exec.queue.FileQueue`: lease
one shard, rebuild its simulation from the self-contained task payload
(canonical scenario spec + engine name + lane range), run it through the
engine registry, publish the per-lane results as a content-hash-keyed
shard entry in the :class:`~repro.study.store.ResultStore`, retire the
task, and repeat until nothing is claimable.  A lane is a per-run seed of
a seed campaign or a memory layout of a layout campaign; one
:class:`ShardRunner` executes both.  The same loop drains the queue for
the executor's worker processes (:mod:`repro.exec.executor`) and for
separately launched ``python -m repro worker --store DIR`` processes, so
extra workers (or, with a shared filesystem, extra hosts) can be attached
to a campaign that another process planned.

Workers resolve engines **by registry name**; external workers therefore
see the built-in engines (plus whatever their interpreter registered at
import time).  Shard execution is deterministic and publishing is an
atomic, idempotent replace, so a shard accidentally executed twice (e.g.
after a lease-reclaim race) lands as identical bytes.

``REPRO_EXEC_THROTTLE`` (seconds, float) inserts a sleep between claiming
and executing each shard — a load-shaping knob that also makes
kill-mid-shard scenarios deterministic to test.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..analysis.campaign import run_layout_campaign
from ..cache.fastsim import CompiledTrace, FastRunResult
from ..cache.trace import Trace
from ..core.prng import derive_run_seeds
from ..engine import EngineSimulator, get_engine
from ..study.scenario import SPEC_VERSION, Scenario, WorkloadSpec, scenario_from_spec
from ..study.store import ResultStore
from ..workloads.base import random_layouts
from .plan import Shard
from .queue import DEFAULT_LEASE_TTL, FileQueue, default_owner_id
from .telemetry import WorkerTelemetry

__all__ = [
    "ShardRunner",
    "WorkerStats",
    "run_worker",
    "shard_task",
]

#: Environment knob: seconds to sleep between claiming and executing each
#: shard (load shaping / deterministic kill-testing).
THROTTLE_ENV = "REPRO_EXEC_THROTTLE"


def shard_task(scenario: Scenario, shard: Shard, engine: str) -> Dict[str, object]:
    """The self-contained JSON task a worker needs to execute ``shard``."""
    return {
        "version": SPEC_VERSION,
        "spec_hash": shard.spec_hash,
        "key": shard.key,
        "start": shard.start,
        "count": shard.count,
        "total": shard.total,
        "engine": engine,
        "spec": scenario.spec_dict(),
    }


def _shard_payload(
    task: Dict[str, object],
    workload: str,
    cycles: List[int],
    results: Sequence[FastRunResult] = (),
) -> Dict[str, object]:
    """One shard's per-lane results as the published store entry.

    Seed shards also carry the per-run miss counters the reassembler
    summarizes into the campaign's miss summary; layout shards publish
    cycles only, so layout campaigns keep an empty miss summary.
    """
    payload: Dict[str, object] = {
        "version": SPEC_VERSION,
        "spec_hash": task["spec_hash"],
        "key": task["key"],
        "start": task["start"],
        "count": task["count"],
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

    A drain sees one campaign's shards back to back (workers claim tasks in
    sorted order, and the inline drain groups campaigns by workload), so the
    runner keeps only what the next shard can reuse: the current workload's
    trace and compiled traces, plus the current seed campaign's simulator
    and seed list.  A layout shard relocates the same cached trace per lane
    (:func:`~repro.analysis.campaign.run_layout_campaign` on its slice).
    The previous campaign's simulator is dropped before the next one is
    built, so a long-lived worker holds one simulator however many
    campaigns it drains.
    """

    def __init__(self) -> None:
        self._workload: Optional[WorkloadSpec] = None
        self._trace: Optional[Trace] = None
        self._compiled: Dict[int, CompiledTrace] = {}  # line size -> compiled
        self._campaign = ""  # "<spec hash>.<engine>" of the task last run
        self._simulator: Optional[EngineSimulator] = None
        self._seeds: List[int] = []

    def execute(self, task: Dict[str, object]) -> Dict[str, object]:
        """Run one task's lane range; returns the publishable shard entry."""
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


@dataclass
class WorkerStats:
    """What one ``run_worker`` invocation accomplished."""

    owner: str
    shards_claimed: int = 0
    shards_done: int = 0
    shards_skipped: int = 0
    runs_done: int = 0

    def summary(self) -> str:
        return (
            f"worker {self.owner}: {self.shards_done} shard(s) executed, "
            f"{self.runs_done} run(s), {self.shards_skipped} already published"
        )


def run_worker(
    queue_dir: Union[str, Path],
    store_dir: Union[str, Path],
    worker_id: Optional[str] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_shards: Optional[int] = None,
    throttle: Optional[float] = None,
    spec_hash: Optional[str] = None,
) -> WorkerStats:
    """Drain claimable shards from a queue; returns this worker's stats.

    The loop exits when no task is claimable (queue empty, or every
    remaining shard is leased by a live owner) or after ``max_shards``
    executed shards.  Tasks whose shard entry already exists in the store
    are retired without re-execution, so a resumed queue converges even
    when several workers race over it.  ``spec_hash`` limits the drain to
    that campaign's tasks (a coordinator drains only its own).

    A shard that raises retires every queued task of its campaign before
    the error propagates, so a failing campaign cannot fail later drains;
    a rerun re-plans it and enqueues whatever is missing.  Interrupts
    (``KeyboardInterrupt``, a kill) leave the tasks for a resume.

    ``lease_ttl`` must be a positive, finite number of seconds: a lease
    with a TTL of zero or less is expired when written, so another worker
    takes a live owner's shard over and runs it twice, and a NaN lease
    never expires, so a dead owner's shard is never reclaimed.
    """
    if not (math.isfinite(lease_ttl) and lease_ttl > 0):
        raise ValueError(
            f"lease_ttl must be a positive, finite number of seconds, got {lease_ttl!r}"
        )
    queue = FileQueue(queue_dir)
    store = ResultStore(store_dir)
    owner = worker_id or default_owner_id()
    if throttle is None:
        throttle = float(os.environ.get(THROTTLE_ENV, "0") or 0)
    runner = ShardRunner()
    telemetry = WorkerTelemetry(queue, owner)
    stats = WorkerStats(owner=owner)
    try:
        while max_shards is None or stats.shards_done < max_shards:
            claimed = False
            for task_path in queue.tasks(spec_hash):
                task = queue.read_task(task_path)
                if task is None:
                    continue
                task_hash, key = str(task["spec_hash"]), str(task["key"])
                if store.load_shard(task_hash, key) is not None:
                    # Published by another worker (or a previous life of
                    # this queue); just retire the task.
                    queue.complete(task_path, owner)
                    stats.shards_skipped += 1
                    continue
                if not queue.try_claim(task_path, owner, ttl=lease_ttl):
                    continue
                if store.load_shard(task_hash, key) is not None:
                    # Published and released between the check above and
                    # this claim (two drains over one queue).
                    queue.complete(task_path, owner)
                    stats.shards_skipped += 1
                    continue
                claimed = True
                stats.shards_claimed += 1
                telemetry.claimed(engine=str(task["engine"]))
                if throttle > 0:
                    time.sleep(throttle)
                try:
                    payload = runner.execute(task)
                except Exception:
                    for sibling in queue.tasks(task_hash):
                        queue.complete(sibling, owner)
                    raise
                store.save_shard(task_hash, key, payload)
                queue.complete(task_path, owner)
                stats.shards_done += 1
                stats.runs_done += int(task["count"])
                telemetry.published(runs=int(task["count"]))
                break  # re-list: fresh ordering and max_shards accounting
            if not claimed:
                break
    finally:
        telemetry.finish()
    return stats
