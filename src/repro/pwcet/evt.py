"""Extreme Value Theory machinery for pWCET estimation.

MBPTA (Cucu-Grosjean et al., ECRTS 2012) collects execution-time
measurements on a time-randomised platform, groups them into blocks, fits a
Gumbel distribution to the block maxima and projects its tail to obtain the
probabilistic WCET: the execution time whose per-run exceedance probability
is below a target such as 1e-15.

This module implements:

* :func:`fit_gumbel_batch` — Gumbel parameter estimation by
  probability-weighted moments (the standard, robust choice for small
  samples) or maximum likelihood, both vectorized across the rows of an
  ``(n_campaigns, n_runs)`` matrix, on raw samples or block maxima;
  :func:`fit_gumbel` is its one-row view, as :func:`block_maxima` is of
  :func:`block_maxima_batch`;
* :class:`PWcetCurve` — the projected exceedance curve, offering per-run
  exceedance probabilities, quantiles (pWCET at a cutoff probability) and
  CCDF points for plotting figures like Figure 1 and Figure 5(c);
* :func:`empirical_ccdf` — the measured complementary CDF the projections
  are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "GumbelFit",
    "fit_gumbel",
    "fit_gumbel_batch",
    "block_maxima",
    "block_maxima_batch",
    "discarded_run_count",
    "PWcetCurve",
    "projection_ccdf_points",
    "empirical_ccdf",
    "EULER_MASCHERONI",
]

#: Euler-Mascheroni constant (mean of the standard Gumbel distribution).
EULER_MASCHERONI = 0.5772156649015329


@dataclass(frozen=True)
class GumbelFit:
    """A fitted Gumbel (type-I extreme value) distribution.

    ``location`` (mu) and ``scale`` (beta) parameterise
    ``F(x) = exp(-exp(-(x - mu) / beta))``.
    """

    location: float
    scale: float
    method: str = "pwm"
    sample_size: int = 0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"Gumbel scale must be positive, got {self.scale}")

    def cdf(self, value: float) -> float:
        """P(X <= value)."""
        return math.exp(-math.exp(-(value - self.location) / self.scale))

    def survival(self, value: float) -> float:
        """P(X > value), computed accurately for the far tail."""
        z = (value - self.location) / self.scale
        # -expm1(-exp(-z)) is numerically exact for both small and large z.
        return -math.expm1(-math.exp(-z))

    def quantile(self, probability: float) -> float:
        """Value exceeded with probability ``probability`` (i.e. 1 - cdf)."""
        if not 0.0 < probability < 1.0:
            raise ValueError(f"probability must be in (0, 1), got {probability}")
        # Invert survival: 1 - exp(-exp(-z)) = p  =>  z = -log(-log(1 - p)).
        # For tiny p, log1p keeps full precision.
        return self.location - self.scale * math.log(-math.log1p(-probability))

    @property
    def mean(self) -> float:
        """Mean of the fitted distribution."""
        return self.location + EULER_MASCHERONI * self.scale


def block_maxima(samples: Sequence[float], block_size: int) -> List[float]:
    """The maxima of one sample's consecutive blocks (a one-row
    :func:`block_maxima_batch`)."""
    return block_maxima_batch([samples], block_size)[0].tolist()


def block_maxima_batch(matrix: np.ndarray, block_size: int) -> np.ndarray:
    """Split each row of an ``(n_campaigns, n_runs)`` matrix into
    consecutive blocks and return each block's maximum.

    Returns an ``(n_campaigns, n_blocks)`` array.  A trailing partial block
    is discarded, as in the MBPTA protocol; use :func:`discarded_run_count`
    to report how many runs that drops.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D sample matrix, got shape {matrix.shape}")
    n_campaigns, n_runs = matrix.shape
    n_blocks = n_runs // block_size
    if n_blocks < 1:
        raise ValueError(
            f"not enough samples ({n_runs}) for a single block of {block_size}"
        )
    trimmed = matrix[:, : n_blocks * block_size]
    return trimmed.reshape(n_campaigns, n_blocks, block_size).max(axis=2)


def discarded_run_count(n_samples: int, block_size: int) -> int:
    """How many trailing runs block-maxima grouping silently drops."""
    if block_size <= 1:
        return 0
    return n_samples - (n_samples // block_size) * block_size


def fit_gumbel(
    samples: Sequence[float],
    block_size: int = 1,
    method: str = "pwm",
) -> GumbelFit:
    """Fit a Gumbel distribution to one sample or its block maxima (a
    one-row :func:`fit_gumbel_batch`)."""
    return fit_gumbel_batch([samples], block_size, method)[0]


def fit_gumbel_batch(
    matrix: np.ndarray,
    block_size: int = 1,
    method: str = "pwm",
) -> List[GumbelFit]:
    """Fit one Gumbel per row of an ``(n_campaigns, n_runs)`` matrix (or to
    each row's block maxima when ``block_size`` > 1).

    ``method`` is ``"pwm"`` (probability-weighted moments, Hosking et al.;
    the default) or ``"mle"`` (maximum likelihood, :func:`_gumbel_mle`).
    Both vectorize across campaigns, and a row's fit does not depend on the
    rows batched with it.  Degenerate rows (all values identical — which
    does happen for fully deterministic setups) are given a tiny positive
    scale so downstream projections remain defined; every other row has a
    positive fitted scale under either method.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D sample matrix, got shape {matrix.shape}")
    if matrix.shape[1] < 2:
        raise ValueError("at least two samples are required to fit a Gumbel")
    if method not in ("pwm", "mle"):
        raise ValueError(f"unknown fit method {method!r}; expected 'pwm' or 'mle'")
    values = block_maxima_batch(matrix, block_size) if block_size > 1 else matrix
    n_campaigns, n = values.shape
    lowest = values.min(axis=1)
    degenerate = values.max(axis=1) == lowest
    if method == "pwm":
        ordered = np.sort(values, axis=1)
        b0 = np.mean(ordered, axis=1)
        ranks = np.arange(n, dtype=float)
        b1 = np.sum(ranks * ordered, axis=1) / (n * (n - 1)) if n > 1 else b0
        scale = (2.0 * b1 - b0) / math.log(2.0)
        location = b0 - EULER_MASCHERONI * scale
    else:
        location = lowest.copy()
        scale = np.zeros(n_campaigns)
        rows = np.flatnonzero(~degenerate)
        offset, scale[rows] = _gumbel_mle(values[rows] - lowest[rows, None])
        location[rows] += offset
    fits: List[GumbelFit] = []
    for row in range(n_campaigns):
        if degenerate[row]:
            first = float(values[row, 0])
            fits.append(
                GumbelFit(
                    location=first,
                    scale=max(abs(first) * 1e-12, 1e-9),
                    method=method,
                    sample_size=n,
                )
            )
            continue
        fits.append(
            GumbelFit(
                location=float(location[row]),
                scale=float(scale[row]),
                method=method,
                sample_size=n,
            )
        )
    return fits


#: Relative and absolute tolerance of the MLE scale: ``gumbel_r.fit``'s
#: ``root_scalar(rtol=1e-14, xtol=1e-14)``.
_MLE_TOLERANCE = 1e-14
#: Bound on the MLE solver's steps.  Rows take at most 6 on the studies'
#: samples, and bisection alone would need about 50.
_MLE_MAX_STEPS = 100


def _gumbel_mle(excess: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Maximum-likelihood Gumbel ``(location, scale)`` of each row of
    ``excess``: a non-degenerate sample less its minimum, so that each row
    holds a 0 and a positive value; the location is relative to the minimum.

    The scale β is the root of the likelihood equation ``gumbel_r.fit``
    solves, ``g(β) = mean(x) - sum(x w) / sum(w) - β`` with weights
    ``w = exp(-x / β)`` (relative to the row minimum, so the largest is 1).
    ``g`` falls from ``g(0+) = mean(x) > 0`` to ``g(mean(x)) < 0``, with
    ``g'(β) = -1 - var_w(x) / β**2``, where ``var_w`` is the weighted
    variance, so ``(0, mean(x)]`` brackets one root.  Every row is solved at
    once by Newton steps kept inside the row's bracket (a step that leaves
    it bisects instead) until a step moves β by at most
    ``1e-14 * (1 + β)``.  The location is ``-β log(mean(w))``.
    """
    mean = excess.mean(axis=1)
    low = np.zeros_like(mean)
    high = mean.copy()
    # The moment estimate starts the search, unless it is out of the bracket.
    scale = excess.std(axis=1) * (math.sqrt(6.0) / math.pi)
    scale = np.where(scale < high, scale, 0.5 * high)
    active = np.arange(len(mean))
    for _ in range(_MLE_MAX_STEPS):
        if not active.size:
            break
        values, beta = excess[active], scale[active]
        weights = np.exp(-values / beta[:, None])
        total = weights.sum(axis=1)
        weighted = (values * weights).sum(axis=1) / total
        spread = ((values - weighted[:, None]) ** 2 * weights).sum(axis=1) / total
        slope = 1.0 + spread / beta**2
        gap = mean[active] - weighted - beta
        above = gap > 0
        low[active] = np.where(above, beta, low[active])
        high[active] = np.where(above, high[active], beta)
        step = beta + gap / slope
        outside = (step <= low[active]) | (step > high[active])
        step = np.where(outside, 0.5 * (low[active] + high[active]), step)
        scale[active] = step
        active = active[np.abs(step - beta) > _MLE_TOLERANCE * (1.0 + step)]
    location = -scale * np.log(np.exp(-excess / scale[:, None]).mean(axis=1))
    return location, scale


def projection_ccdf_points(
    pwcet,
    min_probability: float = 1e-18,
    max_probability: float = 1.0,
    points_per_decade: int = 4,
) -> List[Tuple[float, float]]:
    """(execution time, exceedance probability) points for log-scale plots.

    The shared grid behind every projection curve's ``ccdf_points``:
    ``pwcet`` is the curve's quantile function, evaluated on a log-spaced
    probability grid between the two bounds.
    """
    if min_probability <= 0 or max_probability > 1.0:
        raise ValueError("probabilities must satisfy 0 < min <= max <= 1")
    decades_low = math.log10(min_probability)
    decades_high = math.log10(min(max_probability, 0.999999))
    count = max(int((decades_high - decades_low) * points_per_decade) + 1, 2)
    exponents = np.linspace(decades_low, decades_high, count)
    points = []
    for exponent in exponents[::-1]:
        probability = 10.0 ** float(exponent)
        points.append((pwcet(probability), probability))
    return points


@dataclass(frozen=True)
class PWcetCurve:
    """Projected pWCET exceedance curve.

    The underlying Gumbel fit describes the distribution of block maxima of
    ``block_size`` consecutive runs.  For the very small exceedance
    probabilities of interest, the per-run exceedance probability of a value
    ``x`` is approximately ``P(block max > x) / block_size``; this is the
    standard projection used in MBPTA literature.
    """

    fit: GumbelFit
    block_size: int = 1

    def exceedance(self, value: float) -> float:
        """Per-run probability of exceeding ``value``."""
        return min(1.0, self.fit.survival(value) / self.block_size)

    def pwcet(self, exceedance_probability: float) -> float:
        """Execution time exceeded with at most ``exceedance_probability`` per run."""
        if not 0.0 < exceedance_probability < 1.0:
            raise ValueError(
                f"exceedance_probability must be in (0, 1), got {exceedance_probability}"
            )
        block_probability = min(exceedance_probability * self.block_size, 1.0 - 1e-12)
        return self.fit.quantile(block_probability)

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


def empirical_ccdf(samples: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical complementary CDF: (value, P(X > value)) for each distinct value."""
    if not len(samples):
        raise ValueError("samples must not be empty")
    values = np.sort(np.asarray(samples, dtype=float))
    n = len(values)
    points: List[Tuple[float, float]] = []
    unique, counts = np.unique(values, return_counts=True)
    below = 0
    for value, count in zip(unique, counts):
        below += int(count)
        points.append((float(value), float((n - below) / n)))
    return points
