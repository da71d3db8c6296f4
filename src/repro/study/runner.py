"""Plan execution: deduplicate, resolve from the store, execute, record.

The runner turns a list of :class:`~repro.study.scenario.Scenario` objects
into a :class:`~repro.study.resultset.ResultSet` in three steps:

1. **Deduplicate** — scenarios with the same spec hash are simulated once
   and share their campaign.
2. **Resolve** — with a :class:`~repro.study.store.ResultStore`, any
   scenario whose spec hash is already stored is loaded instead of
   simulated.
3. **Execute and record** — the remaining campaigns go to one
   :func:`repro.exec.executor.execute_campaigns` call, which treats each one
   as a lane range (seeds or memory layouts) and drains them inline or,
   together, through the store's work queue; each reassembled campaign
   (execution times plus the per-level miss summary) is written back to
   the store, unless a queued drain found it already recorded by another
   drain (a cache hit).

Every path is bit-exact with calling
:func:`repro.analysis.campaign.run_campaign` (or ``run_layout_campaign``)
once per scenario: lanes are independent, and the reassembler merges them
in lane order.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.campaign import CampaignResult
from ..engine import DEFAULT_ENGINE, get_engine
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
    *,
    engine: str = DEFAULT_ENGINE,
    jobs: int = 1,
    shard_size: Optional[int] = None,
    mbpta: Optional[MbptaConfig] = None,
) -> ResultSet:
    """Execute a plan and return its :class:`ResultSet`.

    ``store`` enables the on-disk cache: hits skip simulation entirely and
    fresh results are persisted.  ``use_cache=False`` keeps writing results
    but ignores existing entries (a forced refresh), campaigns and
    analyses alike.  ``mbpta`` is the one analysis config of the returned
    result set (default: :class:`MbptaConfig`'s defaults).

    ``engine`` and ``jobs`` apply to every campaign of the call.  With
    ``jobs == 1`` and no ``shard_size`` the campaigns run inline in this
    process.  ``shard_size``, or ``jobs != 1``, sends the call's missing
    campaigns through the store's work queue (:mod:`repro.exec`) instead:
    they are planned into lane-range shards, published individually, and
    drained by one set of ``jobs`` workers (``0`` = one per CPU), whole
    campaigns per worker, which ``python -m repro worker`` processes may
    join; a killed run loses at most its in-flight shards, and a rerun
    executes only the missing ones, bit-exact either way.  ``shard_size``
    ``0`` selects the planner's size (the analysis server's setting).
    Queued execution without a ``store``, a duplicate display label, an
    unknown engine or an unknown estimator raises :class:`ValueError`
    before any simulation (the last three before the store is read).
    """
    counts = Counter(scenario.display_label for scenario in scenarios)
    for label, count in counts.items():
        if count > 1:
            raise ValueError(
                f"duplicate scenario label {label!r}; give the scenarios "
                "distinct 'label' fields"
            )
    get_engine(engine)
    config = mbpta or MbptaConfig()
    get_estimator(config.estimator_name)

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

    for scenario in scenarios:
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
            pending,
            store,
            record,
            engine=engine,
            jobs=jobs,
            shard_size=shard_size,
            use_cache=use_cache,
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
