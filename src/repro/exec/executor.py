"""Campaign execution: plan → queue → drain → reassemble.

Every campaign is a range of lanes — per-run seeds of a seed campaign, or
memory layouts of a layout campaign — and one lane executor,
:class:`~repro.exec.worker.ShardRunner`, runs every range.  One call of
:func:`execute_campaigns` has one drain: the call's missing campaigns are
planned into ``(spec_hash, lane-range)`` shards, the unpublished ones
enqueued as self-contained tasks in the store's
:class:`~repro.exec.queue.FileQueue`, and one set of ``min(jobs, tasks)``
workers (this process, when there is one) drains them, with any attached
``python -m repro worker``; each finished shard is published under the
store's ``shards/``.  A campaign is one shard of at most
``DEFAULT_SHARD_SIZE`` lanes unless the call has fewer campaigns than
workers, so each worker runs whole campaigns.  A call without a store
drains through a temporary one, removed when the call returns.

The reassembler merges shard payloads in lane order into a
:class:`CampaignResult` that is **bit-exact** with serial execution for
any shard size and worker count — including its miss summary, which
:func:`~repro.analysis.campaign.summarize_misses` builds from the per-run
counters exactly as :func:`run_campaign` does.

Crash-resume falls out of the content addressing: a killed campaign leaves
its published shards in the store and its unfinished tasks (plus at most
one stale lease per dead worker) in the queue.  A published shard is exact
whatever plan made it, so a rerun plans around the published shards, at
any shard size, and executes only the lanes they do not cover; a rerun
under another shard size retires the old plan's queued tasks instead of
executing them.  Two drains of one spec — overlapping server jobs, or
``study run`` beside the server — share its shards the same way, and a
drain that finds the campaign already recorded by the other returns that
entry instead of simulating it again.
"""

from __future__ import annotations

import contextlib
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.campaign import MISS_COUNTERS, CampaignResult, summarize_misses
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
    scenario: Scenario,
    shards: Sequence[Shard],
    load: Callable[[Shard], Optional[Dict[str, object]]],
) -> CampaignResult:
    """Merge the shard payloads ``load`` returns, in lane order, into one campaign.

    ``load`` maps a planned shard to its published payload, or ``None``
    when it is missing; a payload's columns are lists of Python ints, as
    :meth:`~repro.study.store.ResultStore.load_shard` decodes them (one
    ``tolist`` per column), and are merged as they are.  Raises
    :class:`RuntimeError` naming the missing shards when the plan is
    incomplete (e.g. a worker died and nobody resumed the campaign).
    """
    ordered = sorted(shards, key=lambda shard: shard.start)
    cycles: List[int] = []
    counters: Dict[str, List[int]] = {name: [] for name in MISS_COUNTERS}
    workload = ""
    missing: List[str] = []
    for shard in ordered:
        payload = load(shard)
        if payload is None or len(payload.get("cycles", ())) != shard.count:
            missing.append(shard.key)
            continue
        cycles.extend(payload["cycles"])
        for name in counters:
            counters[name].extend(payload.get(name, ()))
        workload = str(payload.get("workload", workload))
    if missing:
        raise RuntimeError(
            f"campaign {scenario.spec_hash()[:12]} is missing {len(missing)} of "
            f"{len(ordered)} shard(s) ({', '.join(missing[:4])}"
            f"{', ...' if len(missing) > 4 else ''}); rerun to execute "
            "them, or 'python -m repro exec status' to inspect leases"
        )
    return CampaignResult(
        workload=workload,
        setup=scenario.display_label,
        execution_times=cycles,
        master_seed=scenario.effective_seed,
        miss_summary=summarize_misses(counters, len(cycles)),
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
    """Execute campaigns on ``engine``, calling ``record`` as each one is
    reassembled; returns the call's shard accounting.

    The call drains ``store``'s queue once over all its campaigns, with
    ``jobs`` workers (``0`` = one per CPU; a single worker runs in this
    process).  ``shard_size`` ``None`` plans one shard per campaign unless
    the call has fewer campaigns than workers.  A campaign's shards are
    cleared once ``record(scenario, campaign, from_store)`` has stored its
    entry; ``from_store`` is true for a campaign the drain found recorded
    in the store, before planning or because another drain recorded it
    first.  ``use_cache=False`` (a forced refresh) reads no entry and
    clears each campaign's published shards before planning, so every lane
    is simulated again.  Without a ``store`` the call drains through a
    temporary one, removed on return.  Campaigns run grouped by workload,
    so a worker builds and compiles each trace once.
    """
    if store is None:
        with tempfile.TemporaryDirectory(prefix="repro-drain-") as root:
            return execute_campaigns(
                scenarios, ResultStore(root), record, engine, jobs, shard_size, use_cache
            )
    workers = resolve_jobs(jobs)

    def recorded(scenario: Scenario) -> Optional[CampaignResult]:
        return store.load(scenario.spec_hash()) if use_cache else None

    missing: List[Scenario] = []
    for scenario in _by_workload(scenarios):
        campaign = recorded(scenario)
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
        if not use_cache:
            store.clear_shards(spec_hash)
        published = {key for _, key in store.shard_keys(spec_hash)}
        shards = plan_shards(spec_hash, scenario.runs, size, published)
        _retire_off_plan_tasks(queue, shards)
        for shard in shards:
            if shard.key not in published:
                queue.enqueue(shard_task(scenario, shard, engine))
                tasks += 1
        report.planned += len(shards)
        report.reused += sum(shard.key in published for shard in shards)
        plans.append((scenario, shards))
    if tasks:
        order = [scenario.spec_hash() for scenario in missing]
        report.executed = _drain(queue, store, min(workers, tasks), order)
    for scenario, shards in plans:
        campaign, from_store = _collect(scenario, shards, engine, store, queue, recorded, report)
        record(scenario, campaign, from_store)
        # The recorded campaign entry supersedes its shards; drop them so
        # the store does not keep one shard file per lane range forever.
        store.clear_shards(scenario.spec_hash())
    return report


def _collect(
    scenario: Scenario,
    shards: Sequence[Shard],
    engine: str,
    store: ResultStore,
    queue: FileQueue,
    recorded: Callable[[Scenario], Optional[CampaignResult]],
    report: ShardReport,
) -> Tuple[CampaignResult, bool]:
    """The campaign of the planned ``shards`` and whether it came from the
    store, once every shard is published (:func:`_await_foreign_shards`).

    Until then shards are only stat-ed; each published shard is decoded
    here, once.  One that reads as a miss (corrupt, truncated, or of the
    wrong length) is removed and awaited again, so it is executed anew.
    """
    spec_hash = scenario.spec_hash()
    payloads: Dict[str, Optional[Dict[str, object]]] = {}
    while True:
        campaign = _await_foreign_shards(
            scenario, shards, engine, store, queue, recorded, report
        )
        if campaign is not None:
            return campaign, True
        for shard in shards:
            if payloads.get(shard.key) is None:
                payload = store.load_shard(spec_hash, shard.key)
                whole = (
                    payload is not None
                    and len(payload.get("cycles", ())) == shard.count  # type: ignore[arg-type]
                )
                payloads[shard.key] = payload if whole else None
        unreadable = [key for key, payload in payloads.items() if payload is None]
        if not unreadable:
            return reassemble_campaign(scenario, shards, lambda shard: payloads[shard.key]), False
        # A shard another drain cleared after recording the campaign is
        # gone already; the next await finds that entry.
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
    recorded: Callable[[Scenario], Optional[CampaignResult]],
    report: ShardReport,
    poll: float = 0.2,
) -> Optional[CampaignResult]:
    """Block until every planned shard is published (returns ``None``) or
    another drain has recorded the campaign (returns that entry), adding
    the shards its worker passes execute to ``report.executed``.

    The worker loop only executes what it can claim; a shard leased by a
    live foreign owner — an attached ``python -m repro worker``, another
    drain's worker, or an orphaned worker process of a killed coordinator —
    is left alone.  Those shards are waited out here: each either gets
    published by its owner or its lease dies (pid gone, or TTL expiry), at
    which point a worker pass in this process reclaims and executes it.  A
    retired task whose shard entry has since vanished (e.g. an aggressive
    ``study clean`` sweep) is re-enqueued, so the loop always makes
    progress toward a full plan — unless another drain recorded the
    campaign and cleared its shards, which ``recorded`` is asked about
    first whenever a shard is missing.
    """
    spec_hash = scenario.spec_hash()
    while True:
        missing = [shard for shard in shards if not store.has_shard(spec_hash, shard.key)]
        if not missing:
            return None
        campaign = recorded(scenario)
        if campaign is not None:
            return campaign
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
