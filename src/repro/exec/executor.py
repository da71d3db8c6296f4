"""Campaign execution: plan → queue → drain → read.

Every campaign is a range of lanes — per-run seeds of a seed campaign, or
memory layouts of a layout campaign — and one lane executor,
:class:`~repro.exec.worker.ShardRunner`, runs every range.  One call of
:func:`execute_campaigns` lists the store's published ranges once and has
one drain: a campaign whose planned ranges are all published is a store
hit; the other campaigns are planned into ``(spec_hash, lane-range)``
shards, the unpublished ones enqueued as self-contained tasks in the
store's :class:`~repro.exec.queue.FileQueue`, and one set of
``min(jobs, tasks)`` workers (this process, when there is one) drains
them, with any attached ``python -m repro worker``; each finished shard is
published under the store's ``shards/`` as a lane range, the store's one
unit of lane data.  A campaign is one shard of at most
``DEFAULT_SHARD_SIZE`` lanes unless the call has fewer campaigns than
workers, so each worker runs whole campaigns.  A call without a store
drains through a temporary one, removed when the call returns.

Once its ranges are published, a campaign is read back from the store
(:meth:`~repro.study.store.ResultStore.load`): cycles in lane order and a
miss summary that :func:`~repro.analysis.campaign.summarize_misses`
builds from the per-run counters exactly as :func:`run_campaign` does, so
it is **bit-exact** with serial execution for any shard size and worker
count.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.campaign import CampaignResult
from ..engine import DEFAULT_ENGINE
from ..study.scenario import Scenario, WorkloadSpec
from ..study.store import ResultStore
from .plan import Shard, plan_shards, resolve_jobs, resolve_shard_size
from .queue import FileQueue
from .worker import run_worker, shard_task

__all__ = [
    "ShardReport",
    "execute_campaigns",
    "reassemble_campaign",
]

@dataclass
class ShardReport:
    """How one call's shards were resolved.

    ``reused`` counts the shards already published when the campaigns were
    planned; ``executed`` counts the shards this drain's worker passes
    executed (each :func:`run_worker` call's ``shards_done``), so shards
    another drain executes are not counted twice.
    """

    planned: int = 0
    reused: int = 0
    executed: int = 0


def reassemble_campaign(
    scenario: Scenario, shards: Sequence[Shard], store: ResultStore
) -> CampaignResult:
    """The campaign of the planned ``shards``, read from their published
    ranges in lane order (:meth:`~repro.study.store.ResultStore.load`).

    Raises :class:`RuntimeError` naming the shards that are missing or do
    not read when the plan is incomplete (e.g. a worker died and nobody
    resumed the campaign).
    """
    spec_hash = scenario.spec_hash()
    campaign = store.load(spec_hash, [shard.key for shard in shards])
    if campaign is not None:
        return campaign
    missing = [shard.key for shard in shards if store.load_shard(spec_hash, shard.key) is None]
    raise RuntimeError(
        f"campaign {spec_hash[:12]} is missing {len(missing)} of "
        f"{len(shards)} shard(s) ({', '.join(missing[:4])}"
        f"{', ...' if len(missing) > 4 else ''}); rerun to execute "
        "them, or 'python -m repro exec status' to inspect leases"
    )


def execute_campaigns(
    scenarios: Sequence[Scenario],
    store: Optional[ResultStore],
    record: Callable[[Scenario, CampaignResult, bool], None],
    engine: str = DEFAULT_ENGINE,
    jobs: int = 1,
    shard_size: Optional[int] = None,
    use_cache: bool = True,
) -> ShardReport:
    """Execute campaigns on ``engine``, calling ``record(scenario,
    campaign, from_store)`` once per campaign; returns the call's shard
    accounting.

    The store's ranges are listed once: a campaign whose planned ranges
    are all published is recorded with ``from_store`` true.  The call
    drains ``store``'s queue once over all the other campaigns, with
    ``jobs`` workers (``0`` = one per CPU; a single worker runs in this
    process), and records each as it is read back.  ``shard_size``
    ``None`` plans one shard per campaign unless the call has fewer
    campaigns than workers.  ``use_cache=False`` (a forced refresh) clears
    each campaign's published ranges before the listing, so every lane is
    simulated again.  Without a ``store`` the call drains through a
    temporary one, removed on return.  Campaigns run grouped by workload,
    so a worker builds and compiles each trace once.
    """
    if store is None:
        with tempfile.TemporaryDirectory(prefix="repro-drain-") as root:
            return execute_campaigns(
                scenarios, ResultStore(root), record, engine, jobs, shard_size, use_cache
            )
    workers = resolve_jobs(jobs)
    if not use_cache:
        for scenario in scenarios:
            store.clear_shards(scenario.spec_hash())
    published = store.published()
    missing: List[Scenario] = []
    for scenario in _by_workload(scenarios):
        keys = published.get(scenario.spec_hash())
        campaign = store.load(scenario.spec_hash(), keys) if keys else None
        if campaign is None:
            missing.append(scenario)
        else:
            record(scenario, campaign, True)
    if not missing:
        return ShardReport()
    queue = FileQueue(store.queue_root)
    report = ShardReport()
    # Whole campaigns per worker: lanes split only to give every worker one.
    split = -(-workers // len(missing))
    plans: List[Tuple[Scenario, List[Shard]]] = []
    tasks = 0
    for scenario in missing:
        spec_hash = scenario.spec_hash()
        size = resolve_shard_size(scenario.runs, split, shard_size)
        keys = set(published.get(spec_hash, ()))
        shards = plan_shards(spec_hash, scenario.runs, size, keys)
        _retire_off_plan_tasks(queue, shards)
        for shard in shards:
            if shard.key not in keys:
                queue.enqueue(shard_task(scenario, shard, engine))
                tasks += 1
        report.planned += len(shards)
        report.reused += sum(shard.key in keys for shard in shards)
        plans.append((scenario, shards))
    if tasks:
        order = [scenario.spec_hash() for scenario in missing]
        report.executed = _drain(queue, store, min(workers, tasks), order)
    for scenario, shards in plans:
        record(scenario, _collect(scenario, shards, engine, store, queue, report), False)
    return report


def _collect(
    scenario: Scenario,
    shards: Sequence[Shard],
    engine: str,
    store: ResultStore,
    queue: FileQueue,
    report: ShardReport,
) -> CampaignResult:
    """The campaign of the planned ``shards``, once every one is published
    (:func:`_await_foreign_shards`).

    Until then shards are only stat-ed; then each is read once, through
    the store's memo.  One that reads as a miss (corrupt, truncated, or of
    the wrong length) is removed and awaited again, so it is executed anew.
    """
    spec_hash = scenario.spec_hash()
    while True:
        _await_foreign_shards(scenario, shards, engine, store, queue, report)
        try:
            return reassemble_campaign(scenario, shards, store)
        except RuntimeError:
            unreadable = [
                shard.key for shard in shards
                if store.load_shard(spec_hash, shard.key) is None
            ]
            if not unreadable:
                raise
        for key in unreadable:
            with contextlib.suppress(FileNotFoundError):
                store.shard_path_for(spec_hash, key).unlink()


def _by_workload(scenarios: Sequence[Scenario]) -> List[Scenario]:
    """``scenarios`` grouped by workload, in first-appearance order."""
    groups: Dict[WorkloadSpec, List[Scenario]] = {}
    for scenario in scenarios:
        groups.setdefault(scenario.workload, []).append(scenario)
    return [scenario for group in groups.values() for scenario in group]


def _drain(queue: FileQueue, store: ResultStore, workers: int, order: Sequence[str]) -> int:
    """Run ``workers`` worker passes over the tasks of the ``order``
    campaigns (in this process when there is one, else in a pool opened
    for this drain); returns the shards they executed."""
    if workers == 1:
        return run_worker(queue.root, store.root, spec_hashes=order).shards_done
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(run_worker, str(queue.root), str(store.root), spec_hashes=order)
            for _ in range(workers)
        ]
        return sum(future.result().shards_done for future in futures)


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


def _await_foreign_shards(
    scenario: Scenario,
    shards: Sequence[Shard],
    engine: str,
    store: ResultStore,
    queue: FileQueue,
    report: ShardReport,
    poll: float = 0.2,
) -> None:
    """Block until every planned shard is published, adding the shards
    this drain's worker passes execute to ``report.executed``.

    The worker loop only executes what it can claim; a shard leased by a
    live foreign owner — an attached ``python -m repro worker``, another
    drain's worker, or an orphaned worker process of a killed coordinator —
    is left alone.  Those shards are waited out here: each either gets
    published by its owner or its lease dies (pid gone, or TTL expiry), at
    which point a worker pass in this process reclaims and executes it.  A
    retired task whose range has since vanished (a forced refresh, or a
    corrupt range removed) is re-enqueued, so the loop always makes
    progress toward a full plan.
    """
    spec_hash = scenario.spec_hash()
    while True:
        missing = [shard for shard in shards if not store.has_shard(spec_hash, shard.key)]
        if not missing:
            return
        claimable = waiting = False
        for shard in missing:
            task_path = queue.task_path(spec_hash, shard.key)
            if not task_path.exists():
                queue.enqueue(shard_task(scenario, shard, engine))
                claimable = True
                continue
            lease = queue.lease_for(task_path)
            if lease is None or not lease.active():
                claimable = True
            else:
                waiting = True
        if claimable:
            report.executed += run_worker(
                queue.root, store.root, spec_hashes=[spec_hash]
            ).shards_done
        elif waiting:
            time.sleep(poll)
