"""Campaign execution: plan → execute → reassemble, inline or through the queue.

Every campaign is a range of lanes — per-run seeds of a seed campaign, or
memory layouts of a layout campaign — and one lane executor,
:class:`~repro.exec.worker.ShardRunner`, runs every range.  A campaign is
drained one of two ways:

* **inline** — with ``jobs == 1`` and no shard size, the campaign is one
  shard spanning all its lanes, executed in the calling process; nothing
  is written to the queue or the shard store;
* **queue** — otherwise the planner splits it into ``(spec_hash,
  lane-range)`` shards, the missing ones are enqueued as self-contained
  tasks in the store's :class:`~repro.exec.queue.FileQueue`, workers (this
  process's worker processes, plus any external ``python -m repro worker``
  attached to the same directory) lease and execute them, and every
  finished shard is published as a content-hash-keyed entry under the
  store's ``shards/`` directory.

Both drains feed one reassembler, which merges shard payloads in lane
order into a :class:`CampaignResult` that is **bit-exact** with serial
execution for any shard size and worker count — including its miss
summary, which :func:`~repro.analysis.campaign.summarize_misses` builds
from the per-run counters exactly as :func:`run_campaign` does.

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

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.campaign import MISS_COUNTERS, CampaignResult, summarize_misses
from ..engine import get_engine
from ..study.scenario import Scenario, WorkloadSpec
from ..study.store import ResultStore
from .plan import Shard, plan_shards, resolve_jobs, resolve_shard_size
from .queue import DEFAULT_LEASE_TTL, FileQueue
from .worker import ShardRunner, run_worker, shard_task

__all__ = [
    "ShardReport",
    "execute_campaigns",
    "execute_scenario_sharded",
    "reassemble_campaign",
]

@dataclass
class ShardReport:
    """How one scenario's queued shards were resolved.

    ``reused`` counts the shards already published when the campaign was
    planned; ``executed`` counts the shards this drain's worker passes
    executed (each :func:`run_worker` call's ``shards_done``), so shards
    another drain executes are not counted twice.
    """

    planned: int = 0
    reused: int = 0
    executed: int = 0

    def merge(self, other: "ShardReport") -> None:
        self.planned += other.planned
        self.reused += other.reused
        self.executed += other.executed


def reassemble_campaign(
    scenario: Scenario,
    shards: Sequence[Shard],
    load: Callable[[Shard], Optional[Dict[str, object]]],
) -> CampaignResult:
    """Merge the shard payloads ``load`` returns, in lane order, into one campaign.

    ``load`` maps a planned shard to its published payload, or ``None``
    when it is missing; the queue drain reads the store, the inline drain
    hands over the payload it just computed.  Raises
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
        cycles.extend(int(value) for value in payload["cycles"])
        for name in counters:
            counters[name].extend(int(value) for value in payload.get(name, ()))
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
    shard_size: Optional[int] = None,
    use_cache: bool = True,
) -> ShardReport:
    """Execute campaigns, calling ``record`` as each one is reassembled.

    A campaign with ``jobs == 1`` and no ``shard_size`` drains inline;
    every other one drains through ``store``'s queue (``shard_size`` of
    ``None`` or ``0`` picks the planner's heuristic size), and its shards
    are cleared once ``record(scenario, campaign, from_store)`` has
    stored the campaign entry.  ``from_store`` is true for a campaign the
    queued drain returned from the store because another drain recorded
    it first.  Queued campaigns without a store raise
    :class:`ValueError` before anything runs.  ``use_cache=False`` stops a
    queued drain from returning an entry another drain recorded (see
    :func:`execute_scenario_sharded`).  Campaigns run grouped by workload,
    so each workload's trace is built and compiled once.  Returns the
    queued shards' accounting.
    """
    if store is None and (
        shard_size is not None or any(scenario.jobs != 1 for scenario in scenarios)
    ):
        raise ValueError(
            "queued execution (shard_size, or jobs != 1) requires a result store; "
            "use 'python -m repro study run --jobs N' for worker processes"
        )
    report = ShardReport()
    by_workload: Dict[WorkloadSpec, List[Scenario]] = {}
    for scenario in scenarios:
        by_workload.setdefault(scenario.workload, []).append(scenario)
    runner = ShardRunner()
    for group in by_workload.values():
        for scenario in group:
            if shard_size is None and scenario.jobs == 1:
                (shard,) = plan_shards(scenario.spec_hash(), scenario.runs, scenario.runs)
                payload = runner.execute(shard_task(scenario, shard, scenario.engine))
                campaign = reassemble_campaign(scenario, [shard], lambda _: payload)
                record(scenario, campaign, False)
                continue
            campaign, from_store, shards = execute_scenario_sharded(
                scenario, store, shard_size=shard_size or None, use_cache=use_cache
            )
            report.merge(shards)
            record(scenario, campaign, from_store)
            # The recorded campaign entry supersedes its shards; drop them so
            # the store does not keep one shard file per lane range forever.
            store.clear_shards(scenario.spec_hash())
    return report


def execute_scenario_sharded(
    scenario: Scenario,
    store: ResultStore,
    jobs: Optional[int] = None,
    shard_size: Optional[int] = None,
    use_cache: bool = True,
    lease_ttl: float = DEFAULT_LEASE_TTL,
) -> Tuple[CampaignResult, bool, ShardReport]:
    """Execute one campaign (seeds or layouts) through the store's queue.

    ``jobs`` defaults to the scenario's own ``jobs`` field (``0`` = one
    worker per CPU); ``shard_size`` defaults to the planner's heuristic.
    Shard entries already published for this spec hash are reused, whatever
    shard size published them, and only the lanes they leave uncovered
    execute.  Another drain of the same spec may finish the campaign
    first, record it and clear its shards; so whenever the
    campaign's entry is in the store — before anything is enqueued, on
    every wait for foreign shards, and when reassembly finds shards
    missing — that entry is returned instead (not with ``use_cache=False``,
    a forced refresh).  Returns the campaign (bit-exact with serial
    execution), whether it came from the store, and the shard accounting.
    """
    get_engine(scenario.engine)  # unknown engines fail before any work
    spec_hash = scenario.spec_hash()

    def recorded() -> Optional[CampaignResult]:
        return store.load(spec_hash) if use_cache else None

    campaign = recorded()
    if campaign is not None:
        return campaign, True, ShardReport()
    workers = min(resolve_jobs(scenario.jobs if jobs is None else jobs), scenario.runs)
    size = resolve_shard_size(scenario.runs, workers, shard_size)
    published = {
        key
        for _, key in store.shard_keys(spec_hash)
        if store.load_shard(spec_hash, key) is not None
    }
    shards = plan_shards(spec_hash, scenario.runs, size, published)
    missing = [shard for shard in shards if shard.key not in published]
    report = ShardReport(planned=len(shards), reused=len(shards) - len(missing))
    queue = FileQueue(store.queue_root)
    _retire_off_plan_tasks(queue, shards)
    if missing:
        for shard in missing:
            queue.enqueue(shard_task(scenario, shard, scenario.engine))
        workers = min(workers, len(missing))
        if workers <= 1:
            stats = [
                run_worker(queue.root, store.root, lease_ttl=lease_ttl, spec_hash=spec_hash)
            ]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(
                        run_worker,
                        str(queue.root),
                        str(store.root),
                        lease_ttl=lease_ttl,
                        spec_hash=spec_hash,
                    )
                    for _ in range(workers)
                ]
                stats = [future.result() for future in futures]
        report.executed = sum(worker.shards_done for worker in stats)
        campaign = _await_foreign_shards(
            scenario, shards, store, queue, lease_ttl, recorded, report
        )
        if campaign is not None:
            return campaign, True, report
    try:
        campaign = reassemble_campaign(
            scenario, shards, lambda shard: store.load_shard(spec_hash, shard.key)
        )
    except RuntimeError:
        campaign = recorded()
        if campaign is None:
            raise
        return campaign, True, report
    return campaign, False, report


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
    store: ResultStore,
    queue: FileQueue,
    lease_ttl: float,
    recorded: Callable[[], Optional[CampaignResult]],
    report: ShardReport,
    poll: float = 0.2,
) -> Optional[CampaignResult]:
    """Block until every planned shard is published (returns ``None``) or
    another drain has recorded the campaign (returns ``recorded()``),
    adding the shards its worker passes execute to ``report.executed``.

    The worker loop only executes what it can claim; a shard leased by a
    live foreign owner — an attached ``python -m repro worker``, or an
    orphaned worker process of a killed coordinator — is left alone.  Those
    shards are waited out here: each either gets published by its owner or
    its lease dies (pid gone, or TTL expiry), at which point an inline
    worker pass reclaims and executes it.  A retired task whose shard entry
    has since vanished (e.g. an aggressive ``study clean`` sweep) is
    re-enqueued, so the loop always makes progress toward a full plan —
    unless another drain recorded the campaign and cleared its shards,
    which ``recorded()`` is asked about first whenever a shard is missing.
    """
    spec_hash = scenario.spec_hash()
    while True:
        missing = [
            shard
            for shard in shards
            if store.load_shard(spec_hash, shard.key) is None
        ]
        if not missing:
            return None
        campaign = recorded()
        if campaign is not None:
            return campaign
        claimable = waiting = False
        for shard in missing:
            task_path = queue.task_path(spec_hash, shard.key)
            if not task_path.exists():
                queue.enqueue(shard_task(scenario, shard, scenario.engine))
                claimable = True
                continue
            lease = queue.lease_for(task_path)
            if lease is None or not lease.active():
                claimable = True
            else:
                waiting = True
        if claimable:
            report.executed += run_worker(
                queue.root, store.root, lease_ttl=lease_ttl, spec_hash=spec_hash
            ).shards_done
        elif waiting:
            time.sleep(poll)
