"""Plan execution: deduplicate, then resolve or execute through the store.

The runner turns a list of :class:`~repro.study.scenario.Scenario` objects
into a :class:`~repro.study.resultset.ResultSet` in two steps:

1. **Deduplicate** — scenarios with the same spec hash are resolved once
   and share their campaign.
2. **Resolve or execute** — the unique campaigns go to one
   :func:`repro.exec.executor.execute_campaigns` call, which lists the
   store's published lane ranges once: a campaign whose ranges are all
   published is a cache hit, and the others are planned as lane ranges
   (seeds or memory layouts) and drained together through the store's
   work queue (a temporary store's, without a store).  Each range a
   worker publishes is the stored result itself; nothing is written
   after the drain.

Every path is bit-exact with calling
:func:`repro.analysis.campaign.run_campaign` (or ``run_layout_campaign``)
once per scenario: lanes are independent, and the store reads them back
in lane order.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Sequence, Tuple

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
    fresh lane ranges are persisted as they are executed.
    ``use_cache=False`` keeps writing results but ignores existing ones (a
    forced refresh): published ranges and analyses alike.  ``mbpta`` is
    the one analysis config of the returned result set (default:
    :class:`MbptaConfig`'s defaults).

    ``engine`` and ``jobs`` apply to every campaign of the call.  The
    call's missing campaigns go through the store's work queue
    (:mod:`repro.exec`): they are planned into lane-range shards,
    published individually, and drained by one set of ``jobs`` workers
    (``0`` = one per CPU; one runs in this process), whole campaigns per
    worker, which ``python -m repro worker`` processes may join.
    ``shard_size`` ``None`` is the planner's width, at most one engine
    batch per shard.  A killed run loses at most its in-flight shards, and
    a rerun executes only the missing ones, bit-exact either way.  Without
    a ``store`` the call drains through a temporary one and persists
    nothing.  A duplicate display label, an unknown engine or an unknown
    estimator raises :class:`ValueError` before the store is read.
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
    unique: Dict[str, Scenario] = {}
    for scenario in scenarios:
        unique.setdefault(scenario.spec_hash(), scenario)
    report = ExecutionReport(planned=len(unique))
    resolved: Dict[str, Tuple[CampaignResult, bool]] = {}  # (campaign, from store)

    def record(scenario: Scenario, campaign: CampaignResult, from_store: bool) -> None:
        resolved[scenario.spec_hash()] = (campaign, from_store)
        if from_store:
            report.cache_hits += 1
            return
        report.simulated += 1
        if store is not None:
            report.stored += 1

    if unique:
        # Imported lazily: repro.exec imports study modules at top level, so
        # the study package must not import it during its own initialisation.
        from ..exec.executor import execute_campaigns

        shards = execute_campaigns(
            list(unique.values()),
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
