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
   per-level miss summary) is written back to the store.

Every path is bit-exact with calling
:func:`repro.analysis.campaign.run_campaign` (or ``run_layout_campaign``)
once per scenario: lanes are independent, and the reassembler merges them
in lane order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..analysis.campaign import CampaignResult
from ..engine import get_engine
from .resultset import ExecutionReport, ResultSet, ScenarioOutcome
from .scenario import Scenario
from .store import ResultStore

__all__ = ["execute_scenarios"]


class _Executed:
    """Campaign + provenance for one unique spec hash."""

    __slots__ = ("campaign", "miss_summary", "from_cache")

    def __init__(
        self,
        campaign: CampaignResult,
        miss_summary: Dict[str, float],
        from_cache: bool,
    ) -> None:
        self.campaign = campaign
        self.miss_summary = miss_summary
        self.from_cache = from_cache


def execute_scenarios(
    scenarios: Sequence[Scenario],
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    shard_size: Optional[int] = None,
) -> ResultSet:
    """Execute a plan and return its :class:`ResultSet`.

    ``store`` enables the on-disk cache: hits skip simulation entirely and
    fresh results are persisted.  ``use_cache=False`` keeps writing results
    but ignores existing entries (a forced refresh).

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
    resolved: Dict[str, _Executed] = {}
    pending: List[Scenario] = []
    pending_hashes = set()
    for scenario in scenarios:
        get_engine(scenario.engine)  # unknown engines fail before any work
        spec_hash = scenario.spec_hash()
        if spec_hash in resolved or spec_hash in pending_hashes:
            continue
        report.planned += 1
        if store is not None and use_cache:
            stored = store.load(spec_hash)
            if stored is not None:
                resolved[spec_hash] = _Executed(
                    stored.campaign(), dict(stored.miss_summary), from_cache=True
                )
                report.cache_hits += 1
                continue
        pending.append(scenario)
        pending_hashes.add(spec_hash)

    def record(
        scenario: Scenario, campaign: CampaignResult, miss_summary: Dict[str, float]
    ) -> None:
        resolved[scenario.spec_hash()] = _Executed(campaign, miss_summary, from_cache=False)
        report.simulated += 1
        if store is not None:
            store.save(scenario, campaign, miss_summary)
            report.stored += 1

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
        executed = resolved[spec_hash]
        outcomes.append(
            ScenarioOutcome(
                scenario=scenario,
                campaign=executed.campaign,
                from_cache=executed.from_cache,
                miss_summary=dict(executed.miss_summary),
                spec_hash=spec_hash,
                store=store,
                use_analysis_cache=use_cache,
            )
        )
    return ResultSet(outcomes, report=report)
