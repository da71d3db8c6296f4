"""The MBPTA application protocol.

This ties together the pieces of :mod:`repro.pwcet`: given a sample of
execution-time measurements collected on a time-randomised platform, check
the i.i.d. admission tests, fit the tail through a registered estimator and
project the pWCET curve, exactly as the paper does in Sections 4.2 and 4.3.

The protocol is implemented once, by :func:`apply_mbpta_batch`: a whole
``(n_campaigns, n_runs)`` matrix in one pass, with the admission battery,
block maxima, EVT fits and bootstrap confidence intervals computed
vectorized across campaigns.  :func:`apply_mbpta` is its one-row view for
a single campaign.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .admission import IidAssessment, iid_assessment_batch
from .registry import Estimator, TailEstimate, get_estimator

__all__ = [
    "MBPTA_MIN_RUNS",
    "ANALYSIS_VERSION",
    "MbptaConfig",
    "MbptaResult",
    "apply_mbpta",
    "apply_mbpta_batch",
    "DEFAULT_EXCEEDANCE_PROBABILITIES",
    "BOOTSTRAP_CONFIDENCE",
]

#: Minimum number of measurement runs the protocol accepts.  Below this the
#: i.i.d. admission tests and the block-maxima Gumbel fit are meaningless.
#: The CLI validates requested campaign sizes against this bound up front so
#: users get a one-line error instead of a deep traceback.
MBPTA_MIN_RUNS = 20

#: Cutoff probabilities highlighted by the paper: 1e-12 for high criticality
#: levels and 1e-15 for the highest ones in automotive/avionics.
DEFAULT_EXCEEDANCE_PROBABILITIES: Tuple[float, ...] = (1e-12, 1e-15)

#: Version of the persisted analysis payload; bump when the meaning of any
#: analysis-determining knob changes so stale store entries become misses.
ANALYSIS_VERSION = 1

#: Confidence level of the bootstrap pWCET intervals.
BOOTSTRAP_CONFIDENCE = 0.95

#: Fixed seed of the bootstrap resampling plan.  A *shared* plan (the same
#: resample indices for every campaign of a batch) keeps campaign-to-campaign
#: CI comparisons low-variance and makes a campaign's intervals independent
#: of the other campaigns batched with it.
_BOOTSTRAP_SEED = 0x9E3779B9

#: Legacy ``fit_method`` spellings accepted for the estimator name.
_ESTIMATOR_ALIASES = {"pwm": "gumbel-pwm", "mle": "gumbel-mle"}


@dataclass(frozen=True)
class MbptaConfig:
    """Knobs of the MBPTA protocol.

    ``block_size`` is the number of consecutive runs per block-maxima block;
    the paper's methodology uses a few tens of runs per block on samples of
    1000 measurements.  ``fit_method`` selects the pWCET estimator by
    registry name (:func:`repro.pwcet.available_estimators`); the legacy
    spellings ``"pwm"`` and ``"mle"`` remain aliases for ``"gumbel-pwm"``
    and ``"gumbel-mle"``.  ``bootstrap`` > 0 adds percentile confidence
    intervals from that many block-resampled refits.

    ``exceedance_probabilities`` is kept sorted in descending order with
    duplicates removed, so one set of cutoffs is one analysis hash however
    it is written.
    """

    block_size: int = 20
    fit_method: str = "pwm"
    significance: float = 0.05
    exceedance_probabilities: Tuple[float, ...] = DEFAULT_EXCEEDANCE_PROBABILITIES
    bootstrap: int = 0

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        for probability in self.exceedance_probabilities:
            if not 0.0 < probability < 1.0:
                raise ValueError(f"exceedance probability out of range: {probability}")
        object.__setattr__(
            self,
            "exceedance_probabilities",
            tuple(sorted(set(self.exceedance_probabilities), reverse=True)),
        )
        if self.bootstrap < 0:
            raise ValueError(f"bootstrap must be >= 0, got {self.bootstrap}")

    @property
    def estimator_name(self) -> str:
        """The registry name of the configured estimator."""
        return _ESTIMATOR_ALIASES.get(self.fit_method, self.fit_method)

    def analysis_config(self) -> Dict[str, object]:
        """Canonical, analysis-determining form (the analysis-hash input)."""
        return {
            "version": ANALYSIS_VERSION,
            "estimator": self.estimator_name,
            "block_size": self.block_size,
            "significance": self.significance,
            "exceedance_probabilities": list(self.exceedance_probabilities),
            "bootstrap": self.bootstrap,
        }

    def analysis_hash(self) -> str:
        """SHA-256 over the canonical analysis config.

        Together with a scenario's spec hash this keys persisted pWCET
        results in the result store: same sample, same analysis knobs —
        same analysis.  Computed once per instance and kept in its
        ``__dict__``, as :meth:`repro.study.scenario.Scenario.spec_hash` is.
        """
        cached = self.__dict__.get("_analysis_hash")
        if cached is None:
            canonical = json.dumps(
                self.analysis_config(), sort_keys=True, separators=(",", ":")
            )
            cached = hashlib.sha256(canonical.encode("ascii")).hexdigest()
            self.__dict__["_analysis_hash"] = cached
        return cached


@dataclass
class MbptaResult:
    """Everything produced by one MBPTA application."""

    samples: Sequence[float]
    assessment: IidAssessment
    fit: object
    curve: object
    pwcet: Dict[float, float] = field(default_factory=dict)
    config: MbptaConfig = MbptaConfig()
    estimator: str = "gumbel-pwm"
    #: Trailing runs silently dropped by block-maxima grouping (0 when the
    #: sample length is a block multiple or the estimator is threshold-based).
    discarded_runs: int = 0
    #: Bootstrap percentile confidence intervals per cutoff probability
    #: (empty unless ``config.bootstrap`` > 0).
    pwcet_ci: Dict[float, Tuple[float, float]] = field(default_factory=dict)

    @property
    def iid_passed(self) -> bool:
        """Whether the sample passed all MBPTA admission tests."""
        return self.assessment.passed

    @property
    def high_water_mark(self) -> float:
        """Largest observed execution time."""
        return max(self.samples)

    @property
    def mean(self) -> float:
        """Mean observed execution time."""
        return sum(self.samples) / len(self.samples)

    def pwcet_at(self, exceedance_probability: float) -> float:
        """pWCET at an arbitrary cutoff probability."""
        return self.curve.pwcet(exceedance_probability)

    def summary(self) -> Dict[str, float]:
        """Flat summary used by reports and the experiment drivers.

        ``fit_location``/``fit_scale`` are estimator-neutral (threshold and
        exponential scale for peaks-over-threshold fits); the historical
        ``gumbel_*`` keys are kept for Gumbel fits only, so consumers never
        read a POT threshold as a Gumbel location.
        """
        from .evt import GumbelFit

        summary: Dict[str, float] = {
            "runs": float(len(self.samples)),
            "mean": self.mean,
            "hwm": self.high_water_mark,
            "ww_statistic": self.assessment.independence.statistic,
            "ks_p_value": self.assessment.identical_distribution.p_value,
            "et_statistic": self.assessment.gumbel_convergence.statistic,
            "iid_passed": float(self.iid_passed),
            "fit_location": self.fit.location,
            "fit_scale": self.fit.scale,
            "discarded_runs": float(self.discarded_runs),
        }
        if isinstance(self.fit, GumbelFit):
            summary["gumbel_location"] = self.fit.location
            summary["gumbel_scale"] = self.fit.scale
        for probability, value in self.pwcet.items():
            summary[f"pwcet@{probability:g}"] = value
        for probability, (low, high) in self.pwcet_ci.items():
            summary[f"pwcet@{probability:g}_ci_low"] = low
            summary[f"pwcet@{probability:g}_ci_high"] = high
        return summary


def _resolve(config: Optional[MbptaConfig], estimator: str) -> MbptaConfig:
    """Merge an explicit estimator override into the config."""
    config = config or MbptaConfig()
    if estimator:
        config = replace(config, fit_method=estimator)
    return config


def _check_iid(assessment: IidAssessment, context: str) -> None:
    failed = [
        result.name
        for result in (
            assessment.independence,
            assessment.identical_distribution,
            assessment.gumbel_convergence,
        )
        if not result.passed
    ]
    raise ValueError(f"{context} failed MBPTA admission tests: {', '.join(failed)}")


def _assemble_result(
    samples: Sequence[float],
    assessment: IidAssessment,
    estimate: TailEstimate,
    config: MbptaConfig,
    estimator: Estimator,
    ci: Optional[Dict[float, Tuple[float, float]]] = None,
) -> MbptaResult:
    pwcet = {
        probability: estimate.curve.pwcet(probability)
        for probability in config.exceedance_probabilities
    }
    return MbptaResult(
        samples=list(samples),
        assessment=assessment,
        fit=estimate.fit,
        curve=estimate.curve,
        pwcet=pwcet,
        config=config,
        estimator=estimator.name,
        discarded_runs=estimate.discarded_runs,
        pwcet_ci=dict(ci or {}),
    )


def apply_mbpta(
    samples: Sequence[float],
    config: Optional[MbptaConfig] = None,
    require_iid: bool = False,
    estimator: str = "",
) -> MbptaResult:
    """Apply the MBPTA protocol to one sample of execution times (a one-row
    :func:`apply_mbpta_batch`, which documents the parameters)."""
    return apply_mbpta_batch([samples], config, require_iid, estimator)[0]


def apply_mbpta_batch(
    sample_matrix: Sequence[Sequence[float]],
    config: Optional[MbptaConfig] = None,
    require_iid: bool = False,
    estimator: str = "",
    assessments: Optional[List[IidAssessment]] = None,
) -> List[MbptaResult]:
    """Apply the MBPTA protocol to many campaigns in one vectorized pass.

    Parameters
    ----------
    sample_matrix:
        One campaign per row (``(n_campaigns, n_runs)``): execution-time
        measurements, one per run, collected with a fresh random seed per
        run.  All campaigns must have the same run count — group by length
        when they differ.
    config:
        Protocol configuration (block size, estimator, cutoffs).
    require_iid:
        If True, raise ``ValueError`` when any admission test fails —
        useful in pipelines that must not silently produce pWCET estimates
        from non-compliant configurations.  The default records the test
        outcome in the result and continues, which is what the evaluation
        scripts need when they *compare* compliant and non-compliant setups.
    estimator:
        Registry name of the pWCET estimator, overriding
        ``config.fit_method`` when non-empty.
    assessments:
        Optionally reuses a precomputed admission battery (one
        :class:`IidAssessment` per row, in row order) — the battery does
        not depend on the estimator, so callers assessing the same
        campaigns with several estimators
        (:func:`repro.pwcet.compare_estimators`) run it once.

    Returns one :class:`MbptaResult` per row; a row's result does not
    depend on the other rows.
    """
    try:
        rows = [list(row) for row in sample_matrix]
        matrix = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as error:
        raise ValueError(
            "expected a 2-D sample matrix (one campaign per row); campaigns "
            "of different lengths must be batched separately"
        ) from error
    if matrix.ndim != 2:
        raise ValueError(
            f"expected a 2-D sample matrix, got shape {matrix.shape}; "
            "campaigns of different lengths must be batched separately"
        )
    if matrix.shape[1] < MBPTA_MIN_RUNS:
        raise ValueError(
            f"MBPTA needs at least {MBPTA_MIN_RUNS} measurements, "
            f"got {matrix.shape[1]}"
        )
    config = _resolve(config, estimator)
    if assessments is None:
        assessments = iid_assessment_batch(matrix, config.significance)
    elif len(assessments) != len(rows):
        raise ValueError(
            f"got {len(assessments)} precomputed assessments for "
            f"{len(rows)} campaigns"
        )
    if require_iid:
        for index, assessment in enumerate(assessments):
            if not assessment.passed:
                _check_iid(assessment, context=f"campaign {index}")
    fitter = get_estimator(config.estimator_name)
    estimates = fitter.fit_batch(matrix, config)
    intervals: List[Optional[Dict[float, Tuple[float, float]]]]
    if config.bootstrap > 0:
        intervals = _bootstrap_intervals(matrix, config, fitter)
    else:
        intervals = [None] * len(rows)
    return [
        _assemble_result(samples, assessment, estimate, config, fitter, ci)
        for samples, assessment, estimate, ci in zip(
            rows, assessments, estimates, intervals
        )
    ]


def _bootstrap_intervals(
    matrix: np.ndarray,
    config: MbptaConfig,
    fitter: Estimator,
) -> List[Dict[float, Tuple[float, float]]]:
    """Percentile bootstrap CIs of the pWCET at every configured cutoff.

    Each campaign's runs are resampled with replacement ``config.bootstrap``
    times, the estimator is refitted on every resample (one
    :meth:`Estimator.fit_batch` call over the stacked
    ``(n_campaigns * n_resamples, n_runs)`` matrix) and the
    :data:`BOOTSTRAP_CONFIDENCE` percentile interval of the refitted pWCETs
    is reported.  The resampling plan depends only on the run count, so a
    campaign's intervals do not depend on which campaigns share its batch.
    """
    n_campaigns, n_runs = matrix.shape
    n_resamples = config.bootstrap
    rng = np.random.default_rng(_BOOTSTRAP_SEED)
    indices = rng.integers(0, n_runs, size=(n_resamples, n_runs))
    resampled = matrix[:, indices].reshape(n_campaigns * n_resamples, n_runs)
    estimates = fitter.fit_batch(resampled, config)
    low_percentile = 100.0 * (1.0 - BOOTSTRAP_CONFIDENCE) / 2.0
    high_percentile = 100.0 - low_percentile
    bounds = {
        probability: np.percentile(
            _pwcet_values_batch(estimates, probability).reshape(
                n_campaigns, n_resamples
            ),
            [low_percentile, high_percentile],
            axis=1,
        )
        for probability in config.exceedance_probabilities
    }
    return [
        {
            probability: (float(pair[0, campaign]), float(pair[1, campaign]))
            for probability, pair in bounds.items()
        }
        for campaign in range(n_campaigns)
    ]


def _pwcet_values_batch(
    estimates: Sequence[TailEstimate], probability: float
) -> np.ndarray:
    """pWCET of every estimate at one cutoff, as one array program.

    Bit-identical to ``[e.curve.pwcet(probability) for e in estimates]``:
    the transcendental part of each curve's inverse depends only on the
    cutoff and a small set of shared parameters (the block size of a Gumbel
    curve, the exceedance rate of an exponential-tail curve), so it is
    computed once per distinct value with the same ``math`` calls as the
    scalar path — the float64 results then enter an elementwise multiply
    and subtract, which numpy evaluates with the exact same IEEE operations
    as the scalar expressions.  Unknown curve types fall back to the loop.
    """
    from .estimators import ExponentialTailCurve
    from .evt import PWcetCurve

    curves = [estimate.curve for estimate in estimates]
    values = np.empty(len(curves), dtype=float)
    if all(type(curve) is PWcetCurve for curve in curves):
        by_block: Dict[int, List[int]] = {}
        for position, curve in enumerate(curves):
            by_block.setdefault(curve.block_size, []).append(position)
        for block_size, positions in by_block.items():
            block_probability = min(probability * block_size, 1.0 - 1e-12)
            scaled_log = math.log(-math.log1p(-block_probability))
            locations = np.array([curves[i].fit.location for i in positions])
            scales = np.array([curves[i].fit.scale for i in positions])
            values[positions] = locations - scales * scaled_log
        return values
    if all(type(curve) is ExponentialTailCurve for curve in curves):
        by_rate: Dict[float, List[int]] = {}
        for position, curve in enumerate(curves):
            by_rate.setdefault(curve.fit.exceedance_rate, []).append(position)
        for rate, positions in by_rate.items():
            thresholds = np.array([curves[i].fit.threshold for i in positions])
            if probability >= rate:
                values[positions] = thresholds
            else:
                scales = np.array([curves[i].fit.scale for i in positions])
                values[positions] = thresholds + scales * math.log(
                    rate / probability
                )
        return values
    return np.array([curve.pwcet(probability) for curve in curves])
