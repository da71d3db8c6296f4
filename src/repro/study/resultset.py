"""Executed scenarios, queryable.

A :class:`ResultSet` maps scenario labels to :class:`ScenarioOutcome`
objects — the campaign (with its per-level miss summary), where it came
from (simulation or the result store), and lazily computed pWCET analyses.
The generic views :meth:`ResultSet.table`, :meth:`ResultSet.ccdf` and
:meth:`ResultSet.compare` replace the per-driver formatting loops: any
study (including user-registered ones) gets summary tables, CCDF series
and cross-result-set comparisons without writing formatting code.

pWCET analysis routes through the estimator registry and the vectorized
batch pipeline: the first :meth:`ResultSet.mbpta` call assesses **every**
eligible scenario of the set in one
:func:`~repro.pwcet.apply_mbpta_batch` pass per (run count, analysis
config) group, instead of fitting campaign by campaign.  When the result
set was executed through a :class:`~repro.study.store.ResultStore`,
analyses are resolved from / persisted to the store keyed by
``(spec_hash, analysis_config_hash)``, so a warm re-run performs zero EVT
fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..analysis.campaign import CampaignResult
from ..analysis.report import format_table
from ..pwcet import (
    MBPTA_MIN_RUNS,
    EstimatorComparison,
    IidAssessment,
    MbptaConfig,
    MbptaResult,
    analysis_from_payload,
    analysis_payload,
    apply_mbpta,
    apply_mbpta_batch,
    empirical_ccdf,
)
from ..pwcet.compare import assemble_comparison, resolve_estimator_names
from .scenario import Scenario
from .store import ResultStore

__all__ = ["ScenarioOutcome", "ExecutionReport", "ResultSet"]


@dataclass
class ExecutionReport:
    """How a plan's scenarios were resolved.

    ``planned`` counts **unique** scenario specs: scenarios whose spec hash
    coincides are one unit of work, so ``cache_hits + simulated == planned``
    always holds and a warm re-run of a plan containing duplicates still
    reports a full cache hit.
    """

    planned: int = 0
    cache_hits: int = 0
    simulated: int = 0
    stored: int = 0
    #: Queued-execution accounting (``repro.exec``); all zero when every
    #: campaign drained inline.  ``shards_reused`` counts entries a
    #: previous (killed) run already published, which the rerun did not
    #: have to execute again.
    shards_planned: int = 0
    shards_reused: int = 0
    shards_executed: int = 0

    @property
    def full_cache_hit(self) -> bool:
        """True when every planned scenario came from the result store."""
        return self.planned > 0 and self.cache_hits == self.planned

    def summary(self) -> str:
        """One human-readable line (printed by ``python -m repro study run``)."""
        if self.planned == 0:
            return "no measurement campaigns (analytical study)"
        if self.full_cache_hit:
            return (
                f"resolved {self.cache_hits}/{self.planned} scenarios from the "
                "result store (full cache hit)"
            )
        line = (
            f"simulated {self.simulated} of {self.planned} scenarios "
            f"({self.cache_hits} from the result store, {self.stored} new "
            "results stored)"
        )
        if self.shards_planned:
            line += (
                f"; {self.shards_executed} of {self.shards_planned} shards "
                f"executed ({self.shards_reused} reused)"
            )
        return line


@dataclass
class ScenarioOutcome:
    """One executed scenario: its campaign plus provenance and analysis."""

    scenario: Scenario
    campaign: CampaignResult
    from_cache: bool = False
    #: Spec hash and store of the execution, enabling analysis persistence
    #: (both unset when the plan ran without a store).
    spec_hash: str = ""
    store: Optional[ResultStore] = field(default=None, repr=False, compare=False)
    use_analysis_cache: bool = True
    #: Analyses memoized per analysis-config hash (several estimators can
    #: coexist on one outcome).
    _analyses: Dict[str, MbptaResult] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def label(self) -> str:
        return self.scenario.display_label

    def analysis_config(self, estimator: str = "") -> MbptaConfig:
        """The scenario's MBPTA config with an optional estimator override."""
        config = self.scenario.mbpta
        if estimator:
            config = replace(config, fit_method=estimator)
        return config

    def mbpta(self, estimator: str = "") -> MbptaResult:
        """The scenario's pWCET analysis (memoized per estimator/config)."""
        return self.analysis(self.analysis_config(estimator))

    def analysis(self, config: MbptaConfig) -> MbptaResult:
        """The pWCET analysis under an arbitrary config (memoized per
        analysis hash).

        Resolution order: in-memory memo, then the result store (keyed by
        ``(spec_hash, analysis_config_hash)``), then a fresh
        :func:`~repro.pwcet.apply_mbpta` — whose outcome is persisted back
        to the store when one is attached.
        """
        key = config.analysis_hash()
        cached = self._analyses.get(key)
        if cached is not None:
            return cached
        result = self._load_stored_analysis(config, key)
        if result is None:
            result = apply_mbpta(self.campaign.execution_times, config=config)
            self._store_analysis(result, key)
        self._analyses[key] = result
        return result

    # ------------------------------------------------------ analysis cache

    def _load_stored_analysis(
        self, config: MbptaConfig, key: str
    ) -> Optional[MbptaResult]:
        if self.store is None or not self.spec_hash or not self.use_analysis_cache:
            return None
        payload = self.store.load_analysis(self.spec_hash, key)
        return analysis_from_payload(payload, self.campaign.execution_times)

    def _store_analysis(self, result: MbptaResult, key: str) -> None:
        if self.store is not None and self.spec_hash:
            self.store.save_analysis(self.spec_hash, key, analysis_payload(result))


class ResultSet:
    """Label-addressable outcomes of one executed plan."""

    def __init__(
        self,
        outcomes: Sequence[ScenarioOutcome],
        report: Optional[ExecutionReport] = None,
    ) -> None:
        self._outcomes: Dict[str, ScenarioOutcome] = {}
        #: Admission batteries already computed, keyed by (label,
        #: significance) — they do not depend on the estimator, so
        #: cross-estimator comparisons run each battery once.
        self._assessments: Dict[Tuple[str, float], IidAssessment] = {}
        for outcome in outcomes:
            label = outcome.label
            if label in self._outcomes:
                raise ValueError(
                    f"duplicate scenario label {label!r}; give the scenarios "
                    "distinct 'label' fields"
                )
            self._outcomes[label] = outcome
        self.report = report or ExecutionReport(planned=len(self._outcomes))

    # ------------------------------------------------------------- accessors

    def __len__(self) -> int:
        return len(self._outcomes)

    def __iter__(self) -> Iterator[ScenarioOutcome]:
        return iter(self._outcomes.values())

    def __contains__(self, label: str) -> bool:
        return label in self._outcomes

    def __getitem__(self, label: str) -> ScenarioOutcome:
        try:
            return self._outcomes[label]
        except KeyError:
            known = ", ".join(self.labels()) or "<none>"
            raise KeyError(
                f"no scenario labelled {label!r}; known labels: {known}"
            ) from None

    def labels(self) -> List[str]:
        """Scenario labels in plan order."""
        return list(self._outcomes)

    def campaign(self, label: str) -> CampaignResult:
        return self[label].campaign

    def mbpta(self, label: str, estimator: str = "") -> MbptaResult:
        """One scenario's pWCET analysis, batching the whole set on first use.

        The first call assesses every eligible scenario of the set through
        the vectorized batch pipeline (grouped by run count and analysis
        config), so per-label loops in study builders trigger exactly one
        pipeline pass instead of one EVT fit per scenario.
        """
        outcome = self[label]
        config = outcome.analysis_config(estimator)
        if config.analysis_hash() not in outcome._analyses:
            self._analyze_all(lambda out: out.analysis_config(estimator))
        return outcome.mbpta(estimator)

    def _analyze_all(self, config_for) -> None:
        """Assess every eligible outcome, store-resolved then batch-fitted.

        ``config_for`` maps each outcome to the :class:`MbptaConfig` to
        analyze it under (the default-estimator path uses the scenario's
        own config; :meth:`compare_estimators` overrides it per estimator).
        """
        groups: Dict[Tuple[int, MbptaConfig], List[ScenarioOutcome]] = {}
        for outcome in self:
            runs = len(outcome.campaign.execution_times)
            if runs < MBPTA_MIN_RUNS:
                continue
            config = config_for(outcome)
            key = config.analysis_hash()
            if key in outcome._analyses:
                continue
            stored = outcome._load_stored_analysis(config, key)
            if stored is not None:
                outcome._analyses[key] = stored
                # The persisted payload carries the estimator-independent
                # admission battery: seed the cross-estimator cache so a
                # warm comparison never re-runs it.
                self._assessments[(outcome.label, config.significance)] = (
                    stored.assessment
                )
                continue
            groups.setdefault((runs, config), []).append(outcome)
        for (runs, config), members in groups.items():
            key = config.analysis_hash()
            cached = [
                self._assessments.get((outcome.label, config.significance))
                for outcome in members
            ]
            results = apply_mbpta_batch(
                [outcome.campaign.execution_times for outcome in members],
                config=config,
                assessments=cached if all(a is not None for a in cached) else None,
            )
            for outcome, result in zip(members, results):
                self._assessments[(outcome.label, config.significance)] = (
                    result.assessment
                )
                outcome._analyses[key] = result
                outcome._store_analysis(result, key)

    def compare_estimators(
        self,
        estimators: Optional[Sequence[str]] = None,
        bootstrap: int = 0,
    ) -> "EstimatorComparison":
        """Cross-estimator view of every MBPTA-eligible scenario.

        Unlike :func:`repro.pwcet.compare_estimators` on raw samples, this
        routes through the result set's analysis cache and the result
        store, so a warm comparison re-fits nothing.  ``bootstrap`` > 0
        adds percentile confidence intervals (a different analysis config,
        computed and cached separately).
        """
        names = resolve_estimator_names(estimators)
        eligible = [
            outcome
            for outcome in self
            if len(outcome.campaign.execution_times) >= MBPTA_MIN_RUNS
        ]
        if not eligible:
            raise ValueError(
                "no scenarios with the MBPTA minimum of "
                f"{MBPTA_MIN_RUNS} runs to compare"
            )
        cutoff_sets = {
            outcome.scenario.mbpta.exceedance_probabilities for outcome in eligible
        }
        if len(cutoff_sets) > 1:
            raise ValueError(
                "scenarios carry different exceedance probabilities "
                f"({sorted(cutoff_sets)}); the estimator comparison needs a "
                "uniform cutoff set"
            )

        def config_for(outcome: ScenarioOutcome, name: str) -> MbptaConfig:
            return replace(
                outcome.scenario.mbpta, fit_method=name, bootstrap=bootstrap
            )

        # Warm the whole set per estimator first (one vectorized batch pass
        # per (run count, config) group, store-cached) so the assembly
        # callback below only reads memoised analyses.
        by_label = {outcome.label: outcome for outcome in eligible}
        for name in names:
            self._analyze_all(lambda out, _name=name: config_for(out, _name))
        return assemble_comparison(
            [outcome.label for outcome in eligible],
            names,
            eligible[0].scenario.mbpta.exceedance_probabilities,
            {
                outcome.label: max(outcome.campaign.execution_times)
                for outcome in eligible
            },
            lambda label, name: by_label[label].analysis(
                config_for(by_label[label], name)
            ),
        )

    def analysis_summaries(self, estimator: str = "") -> Dict[str, Dict[str, object]]:
        """Flat per-scenario analysis summaries for machine-readable output.

        Only scenarios whose analysis has already been computed (by a study
        builder or an explicit :meth:`mbpta` call) are included — this never
        triggers new fits, so rendering stays free for analytical studies.
        """
        summaries: Dict[str, Dict[str, object]] = {}
        for outcome in self:
            key = outcome.analysis_config(estimator).analysis_hash()
            result = outcome._analyses.get(key)
            if result is None:
                continue
            summaries[outcome.label] = {
                "estimator": result.estimator,
                **result.summary(),
            }
        return summaries

    # ----------------------------------------------------------------- views

    def table(self, cutoffs: Sequence[float] = (), title: str = "") -> str:
        """An aligned summary table: one row per scenario.

        ``cutoffs`` adds one pWCET column per exceedance probability
        (scenarios with fewer than the MBPTA minimum of runs show ``-``).
        """
        headers = ["scenario", "runs", "mean", "hwm", "source"]
        headers[4:4] = [f"pWCET@{cutoff:g}" for cutoff in cutoffs]
        rows = []
        for outcome in self:
            campaign = outcome.campaign
            row: List[object] = [
                outcome.label,
                campaign.runs,
                f"{campaign.mean:,.0f}",
                f"{campaign.high_water_mark:,}",
            ]
            for cutoff in cutoffs:
                if campaign.runs >= MBPTA_MIN_RUNS:
                    row.append(f"{self.mbpta(outcome.label).pwcet_at(cutoff):,.0f}")
                else:
                    row.append("-")
            row.append("store" if outcome.from_cache else "simulated")
            rows.append(row)
        return format_table(headers, rows, title=title)

    def ccdf(self, label: str) -> List[Tuple[float, float]]:
        """The empirical CCDF of one scenario's execution times."""
        return empirical_ccdf(self.campaign(label).execution_times)

    def compare(self, other: "ResultSet", title: str = "") -> str:
        """Compare scenarios sharing a label between two result sets.

        Rows report the mean and high-water mark of both sides plus their
        ratios — the shape the paper's RM-versus-hRP comparisons use.
        """
        shared = [label for label in self.labels() if label in other]
        if not shared:
            return (
                "no overlapping scenario labels between the two result sets\n"
                f"left:  {', '.join(self.labels()) or '<none>'}\n"
                f"right: {', '.join(other.labels()) or '<none>'}"
            )
        rows = []
        for label in shared:
            a = self.campaign(label)
            b = other.campaign(label)
            rows.append(
                (
                    label,
                    f"{a.mean:,.0f}",
                    f"{b.mean:,.0f}",
                    f"{b.mean / a.mean:.3f}",
                    f"{a.high_water_mark:,}",
                    f"{b.high_water_mark:,}",
                    f"{b.high_water_mark / a.high_water_mark:.3f}",
                )
            )
        return format_table(
            ["scenario", "mean A", "mean B", "B/A", "hwm A", "hwm B", "B/A"],
            rows,
            title=title,
        )

    def miss_rates(self) -> Dict[str, Dict[str, float]]:
        """Per-scenario miss summaries (layout campaigns have none and are omitted)."""
        return {
            outcome.label: dict(outcome.campaign.miss_summary)
            for outcome in self
            if outcome.campaign.miss_summary
        }
