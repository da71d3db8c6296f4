"""Campaign execution: plan → queue → drain → read.

Every campaign is a range of lanes — per-run seeds of a seed campaign, or
memory layouts of a layout campaign — and one lane executor,
:class:`~repro.exec.worker.ShardRunner`, runs every range.  One call of
:func:`execute_campaigns` lists the store's published ranges once and has
one drain: a campaign whose planned ranges are all published is a store
hit; the other campaigns are planned into ``(spec_hash, lane-range)``
shards, and one loop enqueues the unpublished ones as self-contained tasks
in the store's :class:`~repro.exec.queue.FileQueue`, has one set of
``min(jobs, tasks)`` workers (this process, when there is one) drain
them, with any attached ``python -m repro worker``, and reads each
campaign back once all its planned ranges are published.  Each finished
shard is published under the store's ``shards/`` as a lane range, the
store's one unit of lane data.  A campaign is one shard of at most
``DEFAULT_SHARD_SIZE`` lanes unless the call has fewer campaigns than
workers, so each worker runs whole campaigns.  A call without a store
drains through a temporary one, removed when the call returns.  The
store reads a campaign (:meth:`~repro.study.store.ResultStore.load`) as
cycles in lane order and a miss summary that
:func:`~repro.analysis.campaign.summarize_misses` builds from the per-run
counters exactly as :func:`run_campaign` does, so it is **bit-exact** with
serial execution for any shard size and worker count.

Crash-resume falls out of the content addressing: a killed campaign leaves
its published ranges in the store and its unfinished tasks (plus at most
one stale lease per dead worker) in the queue.  A published range is exact
whatever plan made it, so a rerun plans around the published ranges, at
any shard size, and executes only the lanes they do not cover; a rerun
under another shard size retires the old plan's queued tasks instead of
executing them.  Two drains of one spec — overlapping server jobs, or
``study run`` beside the server — share its ranges the same way: each
executes the shards it claims, waits out the ones the other holds, and
reads the campaign from all of them.  No drain removes a range, apart
from a forced refresh (``use_cache=False``) and a range that reads as
corrupt, which is executed anew.
"""

from __future__ import annotations

import contextlib
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.campaign import CampaignResult
from ..engine import DEFAULT_ENGINE
from ..study.scenario import Scenario, WorkloadSpec
from ..study.store import ResultStore
from .plan import Shard, plan_shards, resolve_jobs, resolve_shard_size
from .queue import FileQueue
from .worker import run_worker, shard_task

__all__ = ["ShardReport", "execute_campaigns"]


@dataclass
class ShardReport:
    """How a call resolved one campaign's shards.

    ``reused`` counts the shards already published when the campaign was
    planned; ``executed`` counts the shards the call's worker passes
    executed (each :func:`run_worker` pass counts its shards per
    campaign), so shards another drain executes are not counted twice.
    """

    planned: int = 0
    reused: int = 0
    executed: int = 0


#: A campaign as a call resolved it, by spec hash: with its shard report
#: when the call simulated it, with ``None`` when the store held it.
Resolved = Dict[str, Tuple[CampaignResult, Optional[ShardReport]]]

#: A campaign to simulate, by spec hash: its planning scenario, its planned
#: shards and its shard report.
_Plans = Dict[str, Tuple[Scenario, List[Shard], ShardReport]]


def execute_campaigns(
    scenarios: Sequence[Scenario],
    store: Optional[ResultStore],
    engine: str = DEFAULT_ENGINE,
    jobs: int = 1,
    shard_size: Optional[int] = None,
    use_cache: bool = True,
) -> Resolved:
    """Execute campaigns on ``engine``; returns every campaign of
    ``scenarios`` by spec hash, with the shard report of each one the
    call simulated.

    The store's ranges are listed once: a campaign whose planned ranges
    are all published is a store hit.  The call drains ``store``'s queue
    over all the other campaigns, with ``jobs`` workers (``0`` = one per
    CPU; a single worker runs in this process), and reads each back.
    ``shard_size`` ``None`` plans one shard per campaign unless the call
    has fewer campaigns than workers.  ``use_cache=False`` (a forced
    refresh) clears each campaign's published ranges before the listing,
    so every lane is simulated again.  Without a ``store`` the call drains
    through a temporary one, removed on return.  Campaigns run grouped by
    workload, so a worker builds and compiles each trace once.
    """
    if store is None:
        with tempfile.TemporaryDirectory(prefix="repro-drain-") as root:
            return execute_campaigns(
                scenarios, ResultStore(root), engine, jobs, shard_size, use_cache
            )
    workers = resolve_jobs(jobs)
    if not use_cache:
        for scenario in scenarios:
            store.clear_shards(scenario.spec_hash())
    published = store.published()
    resolved: Resolved = {}
    missing: List[Scenario] = []
    for scenario in _by_workload(scenarios):
        keys = published.get(scenario.spec_hash())
        campaign = store.load(scenario.spec_hash(), keys) if keys else None
        if campaign is None:
            missing.append(scenario)
        else:
            resolved[scenario.spec_hash()] = (campaign, None)
    if not missing:
        return resolved
    queue = FileQueue(store.queue_root)
    # Whole campaigns per worker: lanes split only to give every worker one.
    split = -(-workers // len(missing))
    plans: _Plans = {}
    for scenario in missing:
        spec_hash = scenario.spec_hash()
        size = resolve_shard_size(scenario.runs, split, shard_size)
        keys = set(published.get(spec_hash, ()))
        shards = plan_shards(spec_hash, scenario.runs, size, keys)
        _retire_off_plan_tasks(queue, shards)
        for shard in shards:
            if shard.key not in keys:
                # Overwrites a killed run's task: this call's engine and label.
                queue.enqueue(shard_task(scenario, shard, engine))
        reused = sum(shard.key in keys for shard in shards)
        plans[spec_hash] = (scenario, shards, ShardReport(len(shards), reused))
    for spec_hash, campaign in _drain(plans, engine, store, queue, workers).items():
        resolved[spec_hash] = (campaign, plans[spec_hash][2])
    return resolved


def _by_workload(scenarios: Sequence[Scenario]) -> List[Scenario]:
    """``scenarios`` grouped by workload, in first-appearance order."""
    groups: Dict[WorkloadSpec, List[Scenario]] = {}
    for scenario in scenarios:
        groups.setdefault(scenario.workload, []).append(scenario)
    return [scenario for group in groups.values() for scenario in group]


def _drain(
    plans: _Plans,
    engine: str,
    store: ResultStore,
    queue: FileQueue,
    workers: int,
    poll: float = 0.2,
) -> Dict[str, CampaignResult]:
    """Every planned campaign, read once all its planned ranges are
    published: the call's one loop.

    Until then the ranges are only stat-ed.  A missing range whose task is
    gone (retired, then the range removed) is enqueued again.  The ranges
    whose tasks are unleased or under a dead lease go to one set of at
    most ``workers`` worker passes (:func:`_run_workers`); the ranges a
    live foreign owner leases (an attached worker, another drain's, or an
    orphan of a killed coordinator) are waited out.  Then each campaign is
    read once through the read memo
    (:meth:`~repro.study.store.ResultStore.load`); a range that does not
    read is removed, so the next pass executes it anew.
    """
    campaigns: Dict[str, CampaignResult] = {}
    while len(campaigns) < len(plans):
        pending = [
            (spec_hash, *plan) for spec_hash, plan in plans.items() if spec_hash not in campaigns
        ]
        claimable: Dict[str, ShardReport] = {}
        tasks = 0
        waiting = False
        for spec_hash, scenario, shards, report in pending:
            for shard in shards:
                if store.has_shard(spec_hash, shard.key):
                    continue
                task_path = queue.task_path(spec_hash, shard.key)
                if not task_path.exists():
                    queue.enqueue(shard_task(scenario, shard, engine))
                lease = queue.lease_for(task_path)
                if lease is not None and lease.active():
                    waiting = True
                else:
                    claimable[spec_hash] = report
                    tasks += 1
        if claimable:
            _run_workers(queue, store, min(workers, tasks), claimable)
            continue
        if waiting:
            time.sleep(poll)
            continue
        for spec_hash, _, shards, _ in pending:
            keys = [shard.key for shard in shards]
            campaign = store.load(spec_hash, keys)
            if campaign is not None:
                campaigns[spec_hash] = campaign
                continue
            unreadable = [key for key in keys if store.load_shard(spec_hash, key) is None]
            if not unreadable:
                raise RuntimeError(
                    f"campaign {spec_hash[:12]}: its published ranges read but "
                    "do not make up the campaign"
                )
            for key in unreadable:
                with contextlib.suppress(FileNotFoundError):
                    store.shard_path_for(spec_hash, key).unlink()
    return campaigns


def _run_workers(
    queue: FileQueue, store: ResultStore, workers: int, reports: Dict[str, ShardReport]
) -> None:
    """Run ``workers`` worker passes over the tasks of the ``reports``'
    campaigns, in their order (in this process when there is one, else in
    a pool opened for these passes), adding what each pass executes to its
    campaign's report."""
    order = list(reports)
    if workers == 1:
        passes = [run_worker(queue.root, store.root, spec_hashes=order)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(run_worker, str(queue.root), str(store.root), spec_hashes=order)
                for _ in range(workers)
            ]
            passes = [future.result() for future in futures]
    for stats in passes:
        for spec_hash, count in stats.executed.items():
            reports[spec_hash].executed += count


def _retire_off_plan_tasks(queue: FileQueue, shards: Sequence[Shard]) -> None:
    """Retire the campaign's queued tasks that ``shards`` does not plan.

    A killed run under another shard size leaves tasks this plan does not
    hold (its lanes are published or planned anew), and the worker loop
    drains every task of the spec hash; without this, a resume would
    simulate those lanes twice.  A task leased by a live owner is left to
    it.
    """
    spec_hash = shards[0].spec_hash
    planned = {queue.task_path(spec_hash, shard.key) for shard in shards}
    for task_path in queue.tasks(spec_hash):
        if task_path in planned:
            continue
        lease = queue.lease_for(task_path)
        if lease is None or not lease.active():
            # Retire as the dead owner, so its stale lease goes too.
            queue.complete(task_path, lease.owner if lease else "")
