"""Executed scenarios, queryable.

A :class:`ResultSet` maps scenario labels to :class:`ScenarioOutcome`
objects — the campaign (with its per-level miss summary), where it came
from (simulation or the result store), and lazily computed pWCET analyses.
The generic views :meth:`ResultSet.table`, :meth:`ResultSet.ccdf` and
:meth:`ResultSet.compare` replace the per-driver formatting loops: any
study (including user-registered ones) gets summary tables, CCDF series
and cross-result-set comparisons without writing formatting code.

A result set carries **one** analysis config (:class:`MbptaConfig`), which
every caller of :func:`~repro.study.runner.execute_scenarios` sets once
per call; an estimator or bootstrap override derives a variant of it.
pWCET analysis routes through the estimator registry and the vectorized
batch pipeline: the first :meth:`ResultSet.mbpta` call assesses **every**
eligible scenario of the set in one
:func:`~repro.pwcet.apply_mbpta_batch` pass per run count, instead of
fitting campaign by campaign.  When the result set was executed through a
:class:`~repro.study.store.ResultStore`, analyses are resolved from /
persisted to the store keyed by ``(spec_hash, analysis_config_hash)``, so
a warm re-run performs zero EVT fits, and a warm run in a process that has
read the file before parses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    #: Shard accounting of the call's drain (``repro.exec``); all zero
    #: when every campaign came from the store.  ``shards_reused`` counts
    #: entries a previous (killed) run already published, which the rerun
    #: did not have to execute again.
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
    """One executed scenario: its campaign plus provenance."""

    scenario: Scenario
    campaign: CampaignResult
    from_cache: bool = False
    #: Spec hash of the execution; keys the scenario's stored analyses.
    spec_hash: str = ""

    @property
    def label(self) -> str:
        return self.scenario.display_label


def _parse_analysis(payload: Dict[str, object]) -> Optional[MbptaResult]:
    """A stored analysis without samples: the shared template that
    :meth:`ResultSet._load_stored_analysis` copies per campaign."""
    return analysis_from_payload(payload, ())


class ResultSet:
    """Label-addressable outcomes of one executed plan, analysed under one
    MBPTA config.

    ``outcomes`` carry distinct labels (``execute_scenarios`` checks them).
    ``store`` (with ``use_stored_analyses``) resolves analyses from and
    persists them to the result store the plan executed through.
    """

    def __init__(
        self,
        outcomes: Sequence[ScenarioOutcome],
        report: Optional[ExecutionReport] = None,
        config: Optional[MbptaConfig] = None,
        store: Optional[ResultStore] = None,
        use_stored_analyses: bool = True,
    ) -> None:
        self._outcomes = {outcome.label: outcome for outcome in outcomes}
        self.report = report or ExecutionReport(planned=len(self._outcomes))
        #: The analysis config of every scenario in the set.
        self.config = config or MbptaConfig()
        self.store = store
        self.use_stored_analyses = use_stored_analyses
        #: Analyses memoized per (label, analysis hash): several estimators
        #: can coexist on one scenario.
        self._analyses: Dict[Tuple[str, str], MbptaResult] = {}
        #: Admission batteries already computed, keyed by (label,
        #: significance) — they do not depend on the estimator, so
        #: cross-estimator comparisons run each battery once.
        self._assessments: Dict[Tuple[str, float], IidAssessment] = {}

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

    def analysis_config(self, estimator: str = "") -> MbptaConfig:
        """The set's MBPTA config with an optional estimator override."""
        if estimator:
            return replace(self.config, fit_method=estimator)
        return self.config

    def mbpta(self, label: str, estimator: str = "") -> MbptaResult:
        """One scenario's pWCET analysis, batching the whole set on first use.

        The first call assesses every eligible scenario of the set through
        the vectorized batch pipeline (grouped by run count), so per-label
        loops in study builders trigger exactly one pipeline pass instead
        of one EVT fit per scenario.
        """
        runs = self[label].campaign.runs
        if runs < MBPTA_MIN_RUNS:
            raise ValueError(
                f"MBPTA needs at least {MBPTA_MIN_RUNS} measurements, got {runs}"
            )
        config = self.analysis_config(estimator)
        key = config.analysis_hash()
        if (label, key) not in self._analyses:
            self._analyze_all(config)
        return self._analyses[label, key]

    def _analyze_all(self, config: MbptaConfig) -> None:
        """Assess every eligible outcome under ``config``: memoized, then
        store-resolved, then batch-fitted (and stored)."""
        key = config.analysis_hash()
        groups: Dict[int, List[ScenarioOutcome]] = {}
        for outcome in self:
            runs = outcome.campaign.runs
            if runs < MBPTA_MIN_RUNS or (outcome.label, key) in self._analyses:
                continue
            stored = self._load_stored_analysis(outcome, key)
            if stored is not None:
                self._analyses[outcome.label, key] = stored
                # The persisted payload carries the estimator-independent
                # admission battery: seed the cross-estimator cache so a
                # warm comparison never re-runs it.
                self._assessments[outcome.label, config.significance] = (
                    stored.assessment
                )
                continue
            groups.setdefault(runs, []).append(outcome)
        for members in groups.values():
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
                self._assessments[outcome.label, config.significance] = (
                    result.assessment
                )
                self._analyses[outcome.label, key] = result
                if self.store is not None and outcome.spec_hash:
                    self.store.save_analysis(
                        outcome.spec_hash, key, analysis_payload(result)
                    )

    def _load_stored_analysis(
        self, outcome: ScenarioOutcome, key: str
    ) -> Optional[MbptaResult]:
        if self.store is None or not outcome.spec_hash or not self.use_stored_analyses:
            return None
        # Parsed once per file version, on the file's read-memo entry.  The
        # fit, curve, assessment and config are frozen and shared; the
        # samples and the two dicts are this result's own.
        template = self.store.parsed_analysis(outcome.spec_hash, key, _parse_analysis)
        if template is None:
            return None
        return replace(
            template,
            samples=list(outcome.campaign.execution_times),
            pwcet=dict(template.pwcet),
            pwcet_ci=dict(template.pwcet_ci),
        )

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
            outcome.label
            for outcome in self
            if outcome.campaign.runs >= MBPTA_MIN_RUNS
        ]
        if not eligible:
            raise ValueError(
                "no scenarios with the MBPTA minimum of "
                f"{MBPTA_MIN_RUNS} runs to compare"
            )
        keys = {}
        for name in names:
            # One vectorized batch pass per (run count, estimator), store-
            # cached, so the assembly below only reads memoised analyses.
            config = replace(self.config, fit_method=name, bootstrap=bootstrap)
            self._analyze_all(config)
            keys[name] = config.analysis_hash()
        return assemble_comparison(
            eligible,
            names,
            self.config.exceedance_probabilities,
            {label: self[label].campaign.high_water_mark for label in eligible},
            lambda label, name: self._analyses[label, keys[name]],
        )

    def analysis_summaries(self, estimator: str = "") -> Dict[str, Dict[str, object]]:
        """Flat per-scenario analysis summaries for machine-readable output.

        Only scenarios whose analysis has already been computed (by a study
        builder or an explicit :meth:`mbpta` call) are included — this never
        triggers new fits, so rendering stays free for analytical studies.
        """
        key = self.analysis_config(estimator).analysis_hash()
        summaries: Dict[str, Dict[str, object]] = {}
        for label in self.labels():
            result = self._analyses.get((label, key))
            if result is None:
                continue
            summaries[label] = {"estimator": result.estimator, **result.summary()}
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
