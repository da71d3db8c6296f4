"""Statistical admission tests required by the MBPTA protocol.

Before EVT may be applied, the execution-time observations must be shown to
be independent and identically distributed (i.i.d.) and the tail must be
compatible with a Gumbel/exponential shape.  The paper (Table 2) uses:

* the **Wald-Wolfowitz runs test** for independence — statistic below 1.96
  passes at the 5 % significance level;
* the **two-sample Kolmogorov-Smirnov test** for identical distribution —
  p-value above 0.05 passes;
* the **ET test** (Garrido & Diebolt) for convergence of the tail to an
  exponential/Gumbel shape, decided against Stephens' critical values for
  the Cramér-von Mises statistic with estimated exponential scale.

Each test is implemented once, as a ``*_batch`` function over an
``(n_campaigns, n_runs)`` matrix that computes the statistics of every
campaign in one vectorized pass.  The single-sample names
(:func:`wald_wolfowitz_test`, :func:`identical_distribution_test`,
:func:`exponential_tail_test`, :func:`iid_assessment`) are one-row views
of their batch form.  The implementations are self-contained
(closed-form asymptotics); the test-suite checks the statistics against
scipy's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "TestResult",
    "wald_wolfowitz_test",
    "wald_wolfowitz_batch",
    "identical_distribution_test",
    "identical_distribution_batch",
    "exponential_tail_test",
    "exponential_tail_batch",
    "tail_thresholds",
    "tail_excess_groups",
    "DEFAULT_TAIL_FRACTION",
    "MIN_TAIL_EXCESSES",
    "stephens_critical_value",
    "stephens_p_value",
    "iid_assessment",
    "iid_assessment_batch",
    "IidAssessment",
]


@dataclass(frozen=True)
class TestResult:
    """Outcome of one statistical test."""

    name: str
    statistic: float
    p_value: float
    passed: bool
    details: str = ""


# --------------------------------------------------------------------------
# Wald-Wolfowitz runs test (independence)
# --------------------------------------------------------------------------

def wald_wolfowitz_test(samples: Sequence[float], significance: float = 0.05) -> TestResult:
    """Runs test for independence of one sequence of measurements (a
    one-row :func:`wald_wolfowitz_batch`)."""
    return wald_wolfowitz_batch([samples], significance)[0]


def wald_wolfowitz_batch(
    matrix: np.ndarray, significance: float = 0.05
) -> List[TestResult]:
    """Runs test for independence of every row of an ``(n_campaigns,
    n_runs)`` matrix, with the dichotomisation and runs count vectorized
    across campaigns.

    Each row's observations are dichotomised around its median (values
    equal to the median carry no information about ordering and are
    dropped); the number of runs of consecutive values on the same side is
    compared with its expectation under independence.  The statistic is
    the absolute standard score; values below the two-sided critical value
    (1.96 at 5 %) pass, which is how Table 2 of the paper reports it.  A
    row that is constant after dropping the median ties (a fully
    deterministic platform) is trivially independent.
    """
    matrix = _as_sample_matrix(matrix)
    n_campaigns, n_runs = matrix.shape
    if n_runs < 10:
        raise ValueError("the runs test needs at least 10 observations")
    medians = np.median(matrix, axis=1)
    keep = matrix != medians[:, None]
    above = matrix > medians[:, None]
    n_pos = (keep & above).sum(axis=1)
    n = keep.sum(axis=1)
    n_neg = n - n_pos
    # Runs: transitions between consecutive *kept* elements.  The index of
    # the previous kept element is a running maximum over kept positions.
    positions = np.arange(n_runs)[None, :]
    last_kept = np.maximum.accumulate(np.where(keep, positions, -1), axis=1)
    previous = np.concatenate(
        [np.full((n_campaigns, 1), -1, dtype=last_kept.dtype), last_kept[:, :-1]],
        axis=1,
    )
    previous_sign = np.take_along_axis(above, np.clip(previous, 0, None), axis=1)
    transitions = (keep & (previous >= 0) & (previous_sign != above)).sum(axis=1)
    runs = transitions + 1
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = 2.0 * n_pos * n_neg / n + 1.0
        variance = (2.0 * n_pos * n_neg * (2.0 * n_pos * n_neg - n)) / (
            n * n * (n - 1.0)
        )
        statistic = np.where(
            variance <= 0, 0.0, np.abs(runs - expected) / np.sqrt(variance)
        )
    critical = _normal_two_sided_critical(significance)
    results: List[TestResult] = []
    for row in range(n_campaigns):
        if n_pos[row] == 0 or n_neg[row] == 0:
            results.append(
                TestResult(
                    name="wald-wolfowitz",
                    statistic=0.0,
                    p_value=1.0,
                    passed=True,
                    details="degenerate sample (constant after removing median ties)",
                )
            )
            continue
        stat = float(statistic[row])
        results.append(
            TestResult(
                name="wald-wolfowitz",
                statistic=stat,
                p_value=math.erfc(stat / math.sqrt(2.0)),
                passed=stat < critical,
                details=f"runs={runs[row]}, expected={float(expected[row]):.1f}",
            )
        )
    return results


def _normal_two_sided_critical(significance: float) -> float:
    """Two-sided standard-normal critical value (1.96 for 5 %)."""
    # Imported on first use: statistics loads decimal and fractions, which
    # commands that run no admission test need not pay for.
    from statistics import NormalDist

    return NormalDist().inv_cdf(1.0 - significance / 2.0)


def _as_sample_matrix(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D sample matrix, got shape {matrix.shape}")
    return matrix


# --------------------------------------------------------------------------
# Two-sample Kolmogorov-Smirnov test (identical distribution)
# --------------------------------------------------------------------------

def _ks_p_value(statistic: float, n_a: int, n_b: int) -> float:
    """Asymptotic two-sample KS p-value (Kolmogorov distribution)."""
    effective_n = n_a * n_b / (n_a + n_b)
    lam = (math.sqrt(effective_n) + 0.12 + 0.11 / math.sqrt(effective_n)) * statistic
    if lam <= 0:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return float(min(max(total, 0.0), 1.0))


def identical_distribution_test(
    samples: Sequence[float], significance: float = 0.05
) -> TestResult:
    """Identical-distribution check of one measurement sequence (a one-row
    :func:`identical_distribution_batch`)."""
    return identical_distribution_batch([samples], significance)[0]


def identical_distribution_batch(
    matrix: np.ndarray, significance: float = 0.05
) -> List[TestResult]:
    """Identical-distribution check of every row of a sample matrix.

    Each row is split into its first and second halves (the analysis-time
    convention of the MBPTA protocol; an odd trailing run is dropped) and
    the halves are compared with the two-sample Kolmogorov-Smirnov test.
    Passing (p-value above the significance level) supports the hypothesis
    that both halves come from the same distribution.

    One argsort per row gives both empirical CDFs: walking the combined
    sample in sorted order, the running count of first-half elements at
    the end of each tie group is the first half's CDF there
    (``searchsorted(sorted_half, x, side="right")``), and the second
    half's is the rest.
    """
    matrix = _as_sample_matrix(matrix)
    n_campaigns, n_runs = matrix.shape
    if n_runs < 10:
        raise ValueError("identical-distribution test needs at least 10 observations")
    half = n_runs // 2
    a = matrix[:, :half]
    b = matrix[:, half : 2 * half]
    degenerate = (
        np.isclose(a, a[:, :1]).all(axis=1) & np.isclose(b, b[:, :1]).all(axis=1)
    )
    combined = matrix[:, : 2 * half]
    order = np.argsort(combined, axis=1, kind="stable")
    sorted_values = np.take_along_axis(combined, order, axis=1)
    a_counts = np.cumsum(order < half, axis=1)
    b_counts = np.arange(1, 2 * half + 1) - a_counts
    distances = np.abs(a_counts / half - b_counts / half)
    # The CDF distance is only meaningful after a full tie group (the last
    # of equal values); searchsorted-side="right" semantics, vectorized.
    group_end = np.empty(combined.shape, dtype=bool)
    group_end[:, -1] = True
    group_end[:, :-1] = sorted_values[:, 1:] != sorted_values[:, :-1]
    statistics = np.max(np.where(group_end, distances, 0.0), axis=1)
    results: List[TestResult] = []
    for row in range(n_campaigns):
        if degenerate[row] and math.isclose(float(a[row, 0]), float(b[row, 0])):
            results.append(
                TestResult(
                    name="kolmogorov-smirnov",
                    statistic=0.0,
                    p_value=1.0,
                    passed=True,
                    details="degenerate identical samples",
                )
            )
            continue
        statistic = float(statistics[row])
        p_value = _ks_p_value(statistic, half, half)
        results.append(
            TestResult(
                name="kolmogorov-smirnov",
                statistic=statistic,
                p_value=p_value,
                passed=p_value > significance,
                details=f"n_a={half}, n_b={half}",
            )
        )
    return results


# --------------------------------------------------------------------------
# ET test (exponential tail / Gumbel convergence)
# --------------------------------------------------------------------------

#: Tail-threshold convention shared by the ET test and the
#: peaks-over-threshold estimator: the tail is the top ``tail_fraction`` of
#: the sorted sample, but never fewer than this many observations.
DEFAULT_TAIL_FRACTION = 0.25
MIN_TAIL_EXCESSES = 10


def tail_thresholds(
    sorted_matrix: np.ndarray, tail_fraction: float = DEFAULT_TAIL_FRACTION
) -> np.ndarray:
    """The excess threshold of every row of a row-**sorted** sample matrix:
    the value just below the row's top ``tail_fraction`` (but at least
    :data:`MIN_TAIL_EXCESSES` values), or its minimum when that covers the
    whole row."""
    n = sorted_matrix.shape[1]
    n_tail = max(int(n * tail_fraction), MIN_TAIL_EXCESSES)
    if n_tail < n:
        return sorted_matrix[:, -n_tail - 1]
    return sorted_matrix[:, 0]


def tail_excess_groups(sorted_matrix: np.ndarray, thresholds: np.ndarray):
    """Group the rows of a row-**sorted** matrix by tail size.

    Ties at the threshold can shrink a row's excess count, so rows are
    bucketed by how many values strictly exceed their threshold; each
    bucket is then one vectorized computation.  Yields
    ``(size, rows, excesses)`` where ``excesses`` is the
    ``(len(rows), size)`` matrix of positive excesses over the rows'
    thresholds.  Shared by the ET admission test and the
    peaks-over-threshold estimator, so their tail conventions cannot
    drift apart.
    """
    n = sorted_matrix.shape[1]
    counts = (sorted_matrix > thresholds[:, None]).sum(axis=1)
    for size in np.unique(counts):
        rows = np.nonzero(counts == size)[0]
        if size:
            suffix = sorted_matrix[rows, n - int(size) :]
            excesses = suffix - thresholds[rows, None]
        else:
            excesses = np.empty((len(rows), 0))
        yield int(size), rows, excesses


#: Stephens' upper-tail percentage points for the Cramér-von Mises W²
#: statistic against an exponential with estimated scale, after the
#: small-sample modification ``W² * (1 + 0.16/n)`` (Stephens 1974; also
#: Table 4.14 of D'Agostino & Stephens 1986).  Interpolated log-linearly to
#: turn the statistic into a defensible p-value instead of an ad-hoc decay.
STEPHENS_EXPONENTIAL_W2_POINTS: Tuple[Tuple[float, float], ...] = (
    (0.25, 0.116),
    (0.15, 0.149),
    (0.10, 0.177),
    (0.05, 0.224),
    (0.025, 0.273),
    (0.01, 0.337),
)


def _piecewise_linear(x: float, xs: Sequence[float], ys: Sequence[float]) -> float:
    """Piecewise-linear interpolation over increasing ``xs``, extrapolating
    beyond either end with the adjacent segment's slope.

    The single interpolator behind both Stephens lookups — the forward and
    inverse mappings share it with swapped axes, so they stay exact mutual
    inverses by construction.
    """
    if x <= xs[0]:
        index = 1
    elif x >= xs[-1]:
        index = len(xs) - 1
    else:
        index = next(i for i in range(1, len(xs)) if x <= xs[i])
    slope = (ys[index] - ys[index - 1]) / (xs[index] - xs[index - 1])
    return ys[index - 1] + slope * (x - xs[index - 1])


_STEPHENS_CRITICALS = [critical for _, critical in STEPHENS_EXPONENTIAL_W2_POINTS]
_STEPHENS_LOG_ALPHAS = [math.log(alpha) for alpha, _ in STEPHENS_EXPONENTIAL_W2_POINTS]
#: log-alpha is decreasing in the critical value; the inverse lookup needs
#: increasing x, so it walks the table reversed.
_STEPHENS_LOG_ALPHAS_ASC = _STEPHENS_LOG_ALPHAS[::-1]
_STEPHENS_CRITICALS_DESC = _STEPHENS_CRITICALS[::-1]


def stephens_p_value(statistic: float) -> float:
    """Approximate p-value for the modified W² statistic (exponential case).

    Log-linear interpolation of :data:`STEPHENS_EXPONENTIAL_W2_POINTS`:
    within the table the returned p-value is exact at every tabulated
    critical point (0.224 maps to exactly 0.05); beyond either end the last
    segment's slope is extrapolated, clamped to ``(0, 1]``.
    """
    if statistic <= 0.0:
        return 1.0
    for alpha, critical in STEPHENS_EXPONENTIAL_W2_POINTS:
        if statistic == critical:
            return alpha
    log_p = _piecewise_linear(statistic, _STEPHENS_CRITICALS, _STEPHENS_LOG_ALPHAS)
    return float(min(max(math.exp(log_p), 1e-16), 1.0))


def stephens_critical_value(significance: float = 0.05) -> float:
    """Critical modified-W² value at ``significance`` (0.224 at 5 %).

    The inverse of :func:`stephens_p_value` on the same table: log-linear in
    the significance level, extrapolating beyond the tabulated range.
    """
    if not 0.0 < significance < 1.0:
        raise ValueError(f"significance must be in (0, 1), got {significance}")
    for alpha, critical in STEPHENS_EXPONENTIAL_W2_POINTS:
        if significance == alpha:
            return critical
    critical = _piecewise_linear(
        math.log(significance), _STEPHENS_LOG_ALPHAS_ASC, _STEPHENS_CRITICALS_DESC
    )
    return max(critical, 0.0)


def exponential_tail_test(
    samples: Sequence[float],
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
    significance: float = 0.05,
) -> TestResult:
    """Goodness-of-fit of one sample's tail to an exponential distribution
    (a one-row :func:`exponential_tail_batch`)."""
    return exponential_tail_batch([samples], tail_fraction, significance)[0]


def exponential_tail_batch(
    matrix: np.ndarray,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
    significance: float = 0.05,
) -> List[TestResult]:
    """Goodness-of-fit of every row's tail to an exponential distribution.

    This follows the spirit of the ET test of Garrido & Diebolt (MMR 2000),
    which MBPTA uses to confirm convergence towards a Gumbel: the excesses
    over a high threshold must be compatible with an exponential
    distribution.  The excesses are tested with a Cramér-von Mises
    statistic against the exponential fitted by maximum likelihood, with
    Stephens' small-sample modification; both the pass/fail decision and
    the p-value come from Stephens' critical-value table for an estimated
    scale parameter (:func:`stephens_critical_value` /
    :func:`stephens_p_value`).  A row with fewer than five positive
    excesses has a degenerate tail and passes.

    Rows are grouped by their tail size (ties at the threshold can shrink a
    row's excess count) and each group is processed as one vectorized
    2-D computation; typically every row lands in a single group.
    """
    if not 0.0 < tail_fraction <= 0.5:
        raise ValueError(f"tail_fraction must be in (0, 0.5], got {tail_fraction}")
    matrix = _as_sample_matrix(matrix)
    n_campaigns, n_runs = matrix.shape
    if n_runs < 20:
        raise ValueError("the exponential-tail test needs at least 20 observations")
    sorted_matrix = np.sort(matrix, axis=1)
    thresholds = tail_thresholds(sorted_matrix, tail_fraction)
    critical = stephens_critical_value(significance)
    results: List[TestResult] = [None] * n_campaigns  # type: ignore[list-item]
    for size, rows, excesses in tail_excess_groups(sorted_matrix, thresholds):
        if size < 5:
            for row in rows:
                results[row] = _degenerate_tail_result()
            continue
        means = np.mean(excesses, axis=1)
        u = 1.0 - np.exp(-excesses / means[:, None])
        indices = np.arange(1, size + 1)
        w2 = np.sum((u - (2 * indices - 1) / (2 * size)) ** 2, axis=1) + 1.0 / (
            12 * size
        )
        w2_adjusted = w2 * (1.0 + 0.16 / size)
        for position, row in enumerate(rows):
            if float(means[position]) <= 0:
                results[row] = _degenerate_tail_result()
                continue
            statistic = float(w2_adjusted[position])
            results[row] = TestResult(
                name="exponential-tail",
                statistic=statistic,
                p_value=stephens_p_value(statistic),
                passed=statistic < critical,
                details=(
                    f"threshold={float(thresholds[row]):.1f}, excesses={int(size)}"
                ),
            )
    return results


def _degenerate_tail_result() -> TestResult:
    return TestResult(
        name="exponential-tail",
        statistic=0.0,
        p_value=1.0,
        passed=True,
        details="degenerate tail (no positive excesses)",
    )


# --------------------------------------------------------------------------
# Combined assessment
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IidAssessment:
    """The three MBPTA admission checks for one measurement sample."""

    independence: TestResult
    identical_distribution: TestResult
    gumbel_convergence: TestResult

    @property
    def passed(self) -> bool:
        return (
            self.independence.passed
            and self.identical_distribution.passed
            and self.gumbel_convergence.passed
        )

    def as_row(self) -> Tuple[float, float, float]:
        """(WW statistic, KS p-value, ET statistic) as reported in Table 2."""
        return (
            self.independence.statistic,
            self.identical_distribution.p_value,
            self.gumbel_convergence.statistic,
        )


def iid_assessment(samples: Sequence[float], significance: float = 0.05) -> IidAssessment:
    """Run the three admission tests on one measurement sample (a one-row
    :func:`iid_assessment_batch`)."""
    return iid_assessment_batch([samples], significance)[0]


def iid_assessment_batch(
    matrix: np.ndarray, significance: float = 0.05
) -> List[IidAssessment]:
    """Run the three admission tests on every row of a sample matrix at
    once, each statistic in vectorized passes."""
    matrix = _as_sample_matrix(matrix)
    independence = wald_wolfowitz_batch(matrix, significance)
    identical = identical_distribution_batch(matrix, significance)
    convergence = exponential_tail_batch(matrix, significance=significance)
    return [
        IidAssessment(
            independence=ww, identical_distribution=ks, gumbel_convergence=et
        )
        for ww, ks, et in zip(independence, identical, convergence)
    ]
