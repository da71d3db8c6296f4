"""Campaign execution: plan → run → read.

Every campaign is a range of lanes — per-run seeds of a seed campaign, or
memory layouts of a layout campaign — and one lane executor,
:class:`~repro.exec.worker.ShardRunner`, runs every range.  One call of
:func:`execute_campaigns` lists the store's published ranges once and has
one drain: a campaign whose planned ranges are all published is a store
hit; the other campaigns are planned into ``(spec_hash, lane-range)``
shards around their published ranges, and the unpublished shards run in
workload order, in the calling process at one worker or on one process
pool of at most ``jobs`` workers.  Each finished shard is published under
the store's ``shards/`` as a lane range, the store's one unit of lane
data, and each campaign is read back once.  A campaign is one shard of at
most ``DEFAULT_SHARD_SIZE`` lanes unless the call has fewer campaigns than
workers, so each worker runs whole campaigns.  A call without a store
drains through a temporary one, removed when the call returns.  The store
reads a campaign (:meth:`~repro.study.store.ResultStore.load`) as cycles
in lane order and a miss summary that
:func:`~repro.analysis.campaign.summarize_misses` builds from the per-run
counters exactly as :func:`run_campaign` does, so it is **bit-exact** with
serial execution for any shard size and worker count.

The published ranges are the only coordination.  A killed run leaves its
published ranges in the store; a published range is exact whatever plan
made it, so a rerun plans around them, at any shard size, and executes
only the lanes they do not cover.  Two drains of one spec in different
processes may both execute a range that neither had published when it
planned: both publish the same bytes with an atomic replace, so that
costs CPU time, never a result.  (The server keeps its own jobs apart: a
job waits while another job simulates one of its spec hashes.)  No drain
removes a range, apart from a forced refresh (``use_cache=False``) and a
range that reads as corrupt, which is executed anew.
"""

from __future__ import annotations

import contextlib
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..analysis.campaign import CampaignResult
from ..engine import DEFAULT_ENGINE
from ..study.scenario import Scenario, WorkloadSpec
from ..study.store import ResultStore
from .plan import Shard, plan_shards, resolve_jobs, resolve_shard_size
from .worker import ShardRunner, publish_in_worker, publish_shard, shard_task

__all__ = ["ShardReport", "execute_campaigns"]


@dataclass
class ShardReport:
    """How a call resolved one campaign's shards.

    ``reused`` counts the shards already published when the campaign was
    planned; ``executed`` counts the shards the call executed and
    published.
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

#: Called with ``(spec_hash, shard key)`` after each range the call publishes.
OnPublish = Callable[[str, str], None]


def execute_campaigns(
    scenarios: Sequence[Scenario],
    store: Optional[ResultStore],
    engine: str = DEFAULT_ENGINE,
    jobs: int = 1,
    shard_size: Optional[int] = None,
    use_cache: bool = True,
    on_publish: Optional[OnPublish] = None,
) -> Resolved:
    """Execute campaigns on ``engine``; returns every campaign of
    ``scenarios`` by spec hash, with the shard report of each one the
    call simulated.

    The store's ranges are listed once: a campaign whose planned ranges
    are all published is a store hit.  The call runs the other campaigns'
    unpublished shards with ``jobs`` workers (``0`` = one per CPU; a
    single worker runs in this process), calling ``on_publish`` after
    each range it publishes, and reads each campaign back.
    ``shard_size`` ``None`` plans one shard per campaign unless the call
    has fewer campaigns than workers.  ``use_cache=False`` (a forced
    refresh) clears each campaign's published ranges and stored analyses
    before the listing, so every lane is simulated and every analysis
    fitted again.  Without a ``store`` the call drains through a
    temporary one, removed on return.  Campaigns run grouped by workload,
    so a worker builds and compiles each trace once.
    """
    if store is None:
        with tempfile.TemporaryDirectory(prefix="repro-drain-") as root:
            return execute_campaigns(
                scenarios, ResultStore(root), engine, jobs, shard_size, use_cache, on_publish
            )
    workers = resolve_jobs(jobs)
    if not use_cache:
        for scenario in scenarios:
            store.clear_shards(scenario.spec_hash())
            store.clear_analyses(scenario.spec_hash())
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
    # Whole campaigns per worker: lanes split only to give every worker one.
    split = -(-workers // len(missing))
    plans: _Plans = {}
    for scenario in missing:
        spec_hash = scenario.spec_hash()
        size = resolve_shard_size(scenario.runs, split, shard_size)
        keys = set(published.get(spec_hash, ()))
        shards = plan_shards(spec_hash, scenario.runs, size, keys)
        reused = sum(shard.key in keys for shard in shards)
        plans[spec_hash] = (scenario, shards, ShardReport(len(shards), reused))
    for spec_hash, campaign in _drain(plans, engine, store, workers, on_publish).items():
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
    workers: int,
    on_publish: Optional[OnPublish],
) -> Dict[str, CampaignResult]:
    """Every planned campaign, read once all its planned ranges are
    published: the call's one loop.

    Each pass runs the planned shards whose ranges are not published
    (:func:`_run`), then reads each campaign once through the read memo
    (:meth:`~repro.study.store.ResultStore.load`); a range that does not
    read is removed, so the next pass executes it anew.
    """
    campaigns: Dict[str, CampaignResult] = {}
    while len(campaigns) < len(plans):
        pending = [
            (spec_hash, *plan) for spec_hash, plan in plans.items() if spec_hash not in campaigns
        ]
        tasks = [
            shard_task(scenario, shard, engine)
            for spec_hash, scenario, shards, _ in pending
            for shard in shards
            if not store.has_shard(spec_hash, shard.key)
        ]
        for task in _run(tasks, store, workers):
            spec_hash = str(task["spec_hash"])
            plans[spec_hash][2].executed += 1
            if on_publish is not None:
                on_publish(spec_hash, str(task["key"]))
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


def _run(
    tasks: List[Dict[str, object]], store: ResultStore, workers: int
) -> Iterator[Dict[str, object]]:
    """Run and publish ``tasks`` in order, on ``min(workers, tasks)``
    workers (this process when there is one, else one process pool);
    yields each task once its range is published.

    A task that raises stops the run: tasks not yet started are dropped,
    and the ranges published before it stay.
    """
    if min(workers, len(tasks)) <= 1:
        runner = ShardRunner()
        for task in tasks:
            publish_shard(runner, store, task)
            yield task
        return
    pool = ProcessPoolExecutor(max_workers=min(workers, len(tasks)))
    try:
        futures = [pool.submit(publish_in_worker, str(store.root), task) for task in tasks]
        for task, future in zip(tasks, futures):
            future.result()
            yield task
    finally:
        pool.shutdown(cancel_futures=True)
