"""Plan execution: deduplicate, resolve from the store, execute, record.

The runner turns a list of :class:`~repro.study.scenario.Scenario` objects
into a :class:`~repro.study.resultset.ResultSet` in three steps:

1. **Deduplicate** — scenarios with the same spec hash are simulated once
   and share their campaign.
2. **Resolve** — with a :class:`~repro.study.store.ResultStore`, any
   scenario whose spec hash is already stored is loaded instead of
   simulated.
3. **Execute and record** — the remaining campaigns go to
   :func:`repro.exec.executor.execute_campaigns`, which treats each one as a
   lane range (seeds or memory layouts) and drains it inline or through the
   store's work queue; each reassembled campaign (execution times plus the
   per-level miss summary) is written back to the store, unless a queued
   drain found it already recorded by another drain (a cache hit).

Every path is bit-exact with calling
:func:`repro.analysis.campaign.run_campaign` (or ``run_layout_campaign``)
once per scenario: lanes are independent, and the reassembler merges them
in lane order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.campaign import CampaignResult
from ..engine import get_engine
from ..pwcet.protocol import MbptaConfig
from ..pwcet.registry import get_estimator
from .resultset import ExecutionReport, ResultSet, ScenarioOutcome
from .scenario import Scenario
from .store import ResultStore

__all__ = ["execute_scenarios"]


def execute_scenarios(
    scenarios: Sequence[Scenario],
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    shard_size: Optional[int] = None,
    mbpta: Optional[MbptaConfig] = None,
) -> ResultSet:
    """Execute a plan and return its :class:`ResultSet`.

    ``store`` enables the on-disk cache: hits skip simulation entirely and
    fresh results are persisted.  ``use_cache=False`` keeps writing results
    but ignores existing entries (a forced refresh), campaigns and
    analyses alike.  ``mbpta`` is the one analysis config of the returned
    result set (default: :class:`MbptaConfig`'s defaults).

    Campaigns with ``jobs == 1`` run inline in this process.  ``shard_size``
    — or a scenario with ``jobs != 1`` — sends campaigns through the store's
    sharded work queue (:mod:`repro.exec`) instead: each campaign is split
    into lane-range shards published individually, so a killed run loses at
    most its in-flight shards and worker processes (this run's, or attached
    ``python -m repro worker`` processes) drain them.  ``0`` selects the
    planner's per-campaign heuristic size (used by the analysis server,
    whose jobs always go through the queue).  Queued execution requires a
    ``store``; without one it raises :class:`ValueError` before any
    simulation.  The shard entries a previous (killed) run already
    published are reused and only the missing shards execute; the
    reassembled campaign is bit-exact with serial execution either way.
    """
    # ``planned`` counts unique specs: scenarios sharing a spec hash are one
    # unit of work (simulated or cache-resolved once), however many labels
    # they fan out to in the result set.
    report = ExecutionReport()
    resolved: Dict[str, Tuple[CampaignResult, bool]] = {}  # (campaign, from store)
    pending: List[Scenario] = []
    pending_hashes = set()

    def record(scenario: Scenario, campaign: CampaignResult, from_store: bool) -> None:
        resolved[scenario.spec_hash()] = (campaign, from_store)
        if from_store:
            report.cache_hits += 1
            return
        report.simulated += 1
        if store is not None:
            store.save(scenario, campaign)
            report.stored += 1

    config = mbpta or MbptaConfig()
    get_estimator(config.estimator_name)  # unknown estimators fail early, too
    for scenario in scenarios:
        get_engine(scenario.engine)  # unknown engines fail before any work
        spec_hash = scenario.spec_hash()
        if spec_hash in resolved or spec_hash in pending_hashes:
            continue
        report.planned += 1
        stored = store.load(spec_hash) if store is not None and use_cache else None
        if stored is not None:
            record(scenario, stored, True)
            continue
        pending.append(scenario)
        pending_hashes.add(spec_hash)

    if pending:
        # Imported lazily: repro.exec imports study modules at top level, so
        # the study package must not import it during its own initialisation.
        from ..exec.executor import execute_campaigns

        shards = execute_campaigns(
            pending, store, record, shard_size=shard_size, use_cache=use_cache
        )
        report.shards_planned = shards.planned
        report.shards_reused = shards.reused
        report.shards_executed = shards.executed

    outcomes = []
    for scenario in scenarios:
        spec_hash = scenario.spec_hash()
        campaign, from_cache = resolved[spec_hash]
        outcomes.append(
            ScenarioOutcome(
                scenario=scenario,
                campaign=campaign,
                from_cache=from_cache,
                spec_hash=spec_hash,
            )
        )
    return ResultSet(
        outcomes,
        report=report,
        config=config,
        store=store,
        use_stored_analyses=use_cache,
    )
