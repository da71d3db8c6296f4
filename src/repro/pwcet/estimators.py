"""Built-in pWCET estimators.

Three estimators ship with the registry:

* ``gumbel-pwm`` — block maxima + probability-weighted-moments Gumbel fit,
  vectorized across campaigns.  This is the protocol's historical default
  (``MbptaConfig.fit_method "pwm"``).
* ``gumbel-mle`` — block maxima + maximum-likelihood Gumbel fit
  (``fit_method "mle"``), its likelihood equation solved for every
  campaign at once in numpy.
* ``exponential-excess`` — peaks-over-threshold: the excesses over the
  empirical tail threshold (the same threshold convention as the ET
  admission test) are fitted with a maximum-likelihood exponential and the
  per-run exceedance curve follows directly, with no block grouping and
  therefore no discarded runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .admission import DEFAULT_TAIL_FRACTION, tail_excess_groups, tail_thresholds
from .evt import (
    PWcetCurve,
    discarded_run_count,
    fit_gumbel_batch,
    projection_ccdf_points,
)
from .registry import Estimator, TailEstimate

__all__ = [
    "effective_block_size",
    "GumbelPwmEstimator",
    "GumbelMleEstimator",
    "ExponentialExcessEstimator",
    "ExponentialTailFit",
    "ExponentialTailCurve",
    "BUILTIN_ESTIMATORS",
]

#: Threshold convention shared with the ET admission test (one definition,
#: :data:`repro.pwcet.admission.DEFAULT_TAIL_FRACTION`): the tail is the top
#: fraction of the sorted sample, but never fewer than
#: :data:`~repro.pwcet.admission.MIN_TAIL_EXCESSES` observations.
TAIL_FRACTION = DEFAULT_TAIL_FRACTION


def effective_block_size(n_samples: int, config) -> int:
    """The block size the protocol actually uses for a sample of ``n_samples``.

    Small samples cap the configured block size so at least ten blocks
    remain for the fit (the historical ``apply_mbpta`` behaviour).
    """
    return min(config.block_size, max(n_samples // 10, 1))


# ---------------------------------------------------------------------------
# Gumbel estimators (block maxima)
# ---------------------------------------------------------------------------

class _GumbelEstimator(Estimator):
    """Block maxima + a Gumbel fit by :attr:`method`, shared by the two
    Gumbel estimators."""

    method = "pwm"
    needs_block_maxima = True

    def fit_batch(self, matrix: np.ndarray, config) -> List[TailEstimate]:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError(f"expected a 2-D sample matrix, got shape {matrix.shape}")
        block_size = effective_block_size(matrix.shape[1], config)
        discarded = discarded_run_count(matrix.shape[1], block_size)
        return [
            TailEstimate(
                fit=fit,
                curve=PWcetCurve(fit=fit, block_size=block_size),
                block_size=block_size,
                discarded_runs=discarded,
            )
            for fit in fit_gumbel_batch(
                matrix, block_size=block_size, method=self.method
            )
        ]


class GumbelPwmEstimator(_GumbelEstimator):
    """Block maxima + probability-weighted-moments Gumbel (the default)."""

    name = "gumbel-pwm"
    description = "block maxima + probability-weighted-moments Gumbel fit"
    supports_batch = True
    method = "pwm"


class GumbelMleEstimator(_GumbelEstimator):
    """Block maxima + maximum-likelihood Gumbel fit."""

    name = "gumbel-mle"
    description = "block maxima + maximum-likelihood Gumbel fit"
    supports_batch = True
    #: 1: the numpy solver replaced ``scipy.stats.gumbel_r.fit``; its fits
    #: differ in the last digits, so analyses stored before are misses.
    revision = 1
    method = "mle"


# ---------------------------------------------------------------------------
# Peaks-over-threshold exponential estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialTailFit:
    """An exponential fitted to the excesses over a high threshold.

    The per-run exceedance above the threshold ``u`` is modelled as
    ``P(X > x) = rate * exp(-(x - u) / scale)`` where ``rate`` is the
    empirical probability of exceeding ``u`` and ``scale`` the
    maximum-likelihood (mean) excess.
    """

    threshold: float
    scale: float
    exceedance_rate: float
    method: str = "exponential-excess"
    sample_size: int = 0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"exponential scale must be positive, got {self.scale}")
        if not 0.0 < self.exceedance_rate <= 1.0:
            raise ValueError(
                f"exceedance rate must be in (0, 1], got {self.exceedance_rate}"
            )

    @property
    def location(self) -> float:
        """The threshold (reported alongside Gumbel locations in summaries)."""
        return self.threshold

    def survival(self, value: float) -> float:
        """P(X > value); the model only resolves the tail above the threshold."""
        if value <= self.threshold:
            return 1.0
        return self.exceedance_rate * math.exp(-(value - self.threshold) / self.scale)

    def quantile(self, probability: float) -> float:
        """Value exceeded with probability ``probability`` per run."""
        if not 0.0 < probability < 1.0:
            raise ValueError(f"probability must be in (0, 1), got {probability}")
        if probability >= self.exceedance_rate:
            return self.threshold
        return self.threshold + self.scale * math.log(self.exceedance_rate / probability)


@dataclass(frozen=True)
class ExponentialTailCurve:
    """Projected exceedance curve of a peaks-over-threshold fit.

    The fit is already expressed per run, so no block-size deflation is
    applied (``block_size`` is kept for interface symmetry with
    :class:`~repro.pwcet.evt.PWcetCurve` and is always 1).
    """

    fit: ExponentialTailFit
    block_size: int = 1

    def exceedance(self, value: float) -> float:
        """Per-run probability of exceeding ``value``."""
        return min(1.0, self.fit.survival(value))

    def pwcet(self, exceedance_probability: float) -> float:
        """Execution time exceeded with at most ``exceedance_probability`` per run."""
        if not 0.0 < exceedance_probability < 1.0:
            raise ValueError(
                "exceedance_probability must be in (0, 1), "
                f"got {exceedance_probability}"
            )
        return self.fit.quantile(exceedance_probability)

    def ccdf_points(
        self,
        min_probability: float = 1e-18,
        max_probability: float = 1.0,
        points_per_decade: int = 4,
    ) -> List[Tuple[float, float]]:
        """(execution time, exceedance probability) points for log-scale plots."""
        return projection_ccdf_points(
            self.pwcet, min_probability, max_probability, points_per_decade
        )


class ExponentialExcessEstimator(Estimator):
    """Peaks-over-threshold exponential fit of the sample tail."""

    name = "exponential-excess"
    description = "peaks-over-threshold exponential fit of the tail excesses"
    supports_batch = True
    needs_block_maxima = False

    def fit_batch(self, matrix: np.ndarray, config) -> List[TailEstimate]:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError(f"expected a 2-D sample matrix, got shape {matrix.shape}")
        n_campaigns, n = matrix.shape
        if n < 20:
            raise ValueError(
                "the exponential-excess estimator needs at least 20 observations"
            )
        sorted_matrix = np.sort(matrix, axis=1)
        thresholds = tail_thresholds(sorted_matrix, TAIL_FRACTION)
        estimates: List[TailEstimate] = [None] * n_campaigns  # type: ignore[list-item]
        for size, rows, excesses in tail_excess_groups(sorted_matrix, thresholds):
            means = np.mean(excesses, axis=1) if size else np.zeros(len(rows))
            for position, row in enumerate(rows):
                fit = self._fit_from_excesses(
                    threshold=float(thresholds[row]),
                    excess_count=size,
                    mean_excess=float(means[position]),
                    maximum=float(sorted_matrix[row, -1]),
                    n=n,
                )
                estimates[row] = TailEstimate(
                    fit=fit, curve=ExponentialTailCurve(fit=fit)
                )
        return estimates

    @staticmethod
    def _fit_from_excesses(
        threshold: float,
        excess_count: int,
        mean_excess: float,
        maximum: float,
        n: int,
    ) -> ExponentialTailFit:
        if excess_count < 5 or mean_excess <= 0:
            # Degenerate tail (e.g. a constant sample): pin the curve to the
            # largest observation with a vanishing scale, mirroring the
            # degenerate Gumbel handling in fit_gumbel_batch.
            return ExponentialTailFit(
                threshold=maximum,
                scale=max(abs(maximum) * 1e-12, 1e-9),
                exceedance_rate=1.0 / n,
                sample_size=n,
            )
        return ExponentialTailFit(
            threshold=threshold,
            scale=mean_excess,
            exceedance_rate=excess_count / n,
            sample_size=n,
        )


#: The estimators the registry holds before its first lookup
#: (:mod:`repro.pwcet.registry`).
BUILTIN_ESTIMATORS = (
    GumbelPwmEstimator(),
    GumbelMleEstimator(),
    ExponentialExcessEstimator(),
)
