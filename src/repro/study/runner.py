"""Plan execution: deduplicate, then resolve or execute through the store.

The runner turns plans — lists of
:class:`~repro.study.scenario.Scenario` objects, one per study — into one
:class:`~repro.study.resultset.ResultSet` per plan in two steps:

1. **Deduplicate** — scenarios with the same spec hash, in one plan or
   across plans, are resolved once and share their campaign.
2. **Resolve or execute** — the unique campaigns go to one
   :func:`repro.exec.executor.execute_campaigns` call, which lists the
   store's published lane ranges once: a campaign whose ranges are all
   published is a cache hit, and the others are planned as lane ranges
   (seeds or memory layouts) and run together in one drain, through a
   temporary store without a store.  Each range the drain publishes is
   the stored result itself; nothing is written after the drain.

Every path is bit-exact with calling
:func:`repro.analysis.campaign.run_campaign` (or ``run_layout_campaign``)
once per scenario: lanes are independent, and the store reads them back
in lane order.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence

from ..engine import DEFAULT_ENGINE, get_engine
from ..pwcet.protocol import MbptaConfig
from ..pwcet.registry import get_estimator
from .resultset import ExecutionReport, ResultSet, ScenarioOutcome
from .scenario import Scenario
from .store import ResultStore

__all__ = ["execute_plans", "execute_scenarios"]


def execute_plans(
    plans: Sequence[Sequence[Scenario]],
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    *,
    engine: str = DEFAULT_ENGINE,
    jobs: int = 1,
    shard_size: Optional[int] = None,
    mbpta: Optional[MbptaConfig] = None,
    on_publish: Optional[Callable[[str, str], None]] = None,
) -> List[ResultSet]:
    """Execute plans in one drain; returns one :class:`ResultSet` per plan.

    ``store`` enables the on-disk cache: hits skip simulation entirely and
    fresh lane ranges are persisted as they are executed (without one, the
    call drains through a temporary store and persists nothing).
    ``use_cache=False`` keeps writing results but ignores existing ones (a
    forced refresh): the drain clears each campaign's published ranges and
    stored analyses, so each is simulated and fitted once for all plans.  ``mbpta`` is
    the one analysis config of every result set.  ``engine``, ``jobs``
    (``0`` = one per CPU) and ``shard_size`` (``None``: the planner's
    width) apply to the one :mod:`repro.exec` drain of all the plans'
    missing campaigns, each once; ``on_publish(spec_hash, key)`` is called
    after each lane range the drain publishes.  A duplicate display label within a
    plan, an unknown engine or an unknown estimator raises
    :class:`ValueError` before the store is read.  Each report reads as if
    the plans had run in turn: a campaign the call simulated counts as
    simulated, with its shards, in the first plan that holds it, and as a
    store hit in later ones.
    """
    for scenarios in plans:
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

    hashes = [[scenario.spec_hash() for scenario in scenarios] for scenarios in plans]
    unique: Dict[str, Scenario] = {}
    for scenarios, spec_hashes in zip(plans, hashes):
        for scenario, spec_hash in zip(scenarios, spec_hashes):
            unique.setdefault(spec_hash, scenario)
    resolved = {}
    if unique:
        # Imported lazily: repro.exec imports study modules at top level, so
        # the study package must not import it during its own initialisation.
        from ..exec.executor import execute_campaigns

        resolved = execute_campaigns(
            list(unique.values()),
            store,
            engine=engine,
            jobs=jobs,
            shard_size=shard_size,
            use_cache=use_cache,
            on_publish=on_publish,
        )
    # Each simulated campaign's shard report, taken by its campaign's first plan.
    unreported = {h: shards for h, (_, shards) in resolved.items() if shards is not None}

    results = []
    for scenarios, spec_hashes in zip(plans, hashes):
        # ``planned`` counts unique specs: scenarios sharing a spec hash are
        # one unit of work (simulated or cache-resolved once), however many
        # labels they fan out to in the result set.
        report = ExecutionReport(planned=len(set(spec_hashes)))
        simulated = set()
        for spec_hash in dict.fromkeys(spec_hashes):
            shards = unreported.pop(spec_hash, None)
            if shards is None:
                report.cache_hits += 1
                continue
            simulated.add(spec_hash)
            report.simulated += 1
            report.stored += store is not None
            report.shards_planned += shards.planned
            report.shards_reused += shards.reused
            report.shards_executed += shards.executed
        outcomes = [
            ScenarioOutcome(
                scenario=scenario,
                campaign=resolved[spec_hash][0],
                from_cache=spec_hash not in simulated,
                spec_hash=spec_hash,
            )
            for scenario, spec_hash in zip(scenarios, spec_hashes)
        ]
        results.append(ResultSet(outcomes, report=report, config=config, store=store))
    return results


def execute_scenarios(
    scenarios: Sequence[Scenario],
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    **options,
) -> ResultSet:
    """Execute one plan: :func:`execute_plans` with ``[scenarios]``, whose
    keyword options (``engine``, ``jobs``, ``shard_size``, ``mbpta``,
    ``on_publish``) it takes."""
    [results] = execute_plans([scenarios], store, use_cache, **options)
    return results
