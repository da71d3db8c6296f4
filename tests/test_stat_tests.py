"""Tests for the MBPTA statistical admission tests."""

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.pwcet.admission import (
    STEPHENS_EXPONENTIAL_W2_POINTS,
    _normal_two_sided_critical,
    exponential_tail_test,
    identical_distribution_test,
    iid_assessment,
    stephens_critical_value,
    stephens_p_value,
    wald_wolfowitz_test,
)


def gumbel_sample(n, seed=0, loc=1000.0, scale=25.0):
    rng = np.random.default_rng(seed)
    return list(scipy_stats.gumbel_r.rvs(loc=loc, scale=scale, size=n, random_state=rng))


class TestWaldWolfowitz:
    def test_iid_sample_passes(self):
        result = wald_wolfowitz_test(gumbel_sample(500, seed=1))
        assert result.passed
        assert result.statistic < 1.96

    def test_strongly_trending_sample_fails(self):
        trending = list(np.linspace(0, 1000, 400) + np.random.default_rng(2).normal(0, 5, 400))
        result = wald_wolfowitz_test(trending)
        assert not result.passed
        assert result.statistic > 1.96

    def test_alternating_sample_fails(self):
        alternating = [0.0, 100.0] * 200
        assert not wald_wolfowitz_test(alternating).passed

    def test_constant_sample_trivially_passes(self):
        result = wald_wolfowitz_test([42.0] * 100)
        assert result.passed
        assert "degenerate" in result.details

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            wald_wolfowitz_test([1.0] * 5)

    @pytest.mark.parametrize("significance", [0.01, 0.05, 0.1])
    def test_critical_value_matches_scipy(self, significance):
        # The stdlib's inverse normal CDF stands in for scipy.stats.norm.ppf.
        # Neither is correctly rounded: at these levels they differ by 1, 2
        # and 3 ulp (Python 3.11, scipy 1.17).
        ours = _normal_two_sided_critical(significance)
        theirs = float(scipy_stats.norm.ppf(1.0 - significance / 2.0))
        assert abs(ours - theirs) <= 4 * math.ulp(theirs)

    def test_p_value_consistent_with_statistic(self):
        result = wald_wolfowitz_test(gumbel_sample(300, seed=3))
        # two-sided normal p-value
        expected = 2 * (1 - scipy_stats.norm.cdf(result.statistic))
        assert result.p_value == pytest.approx(expected, abs=1e-6)


class TestKolmogorovSmirnov:
    """The KS test compares a sample's first half with its second."""

    def test_same_distribution_passes(self):
        a = gumbel_sample(400, seed=8)
        b = gumbel_sample(400, seed=9)
        result = identical_distribution_test(a + b)
        assert result.passed

    def test_different_distributions_fail(self):
        a = gumbel_sample(400, seed=6, loc=1000.0)
        b = gumbel_sample(400, seed=7, loc=1200.0)
        assert not identical_distribution_test(a + b).passed

    def test_statistic_matches_scipy(self):
        a = gumbel_sample(300, seed=8)
        b = gumbel_sample(300, seed=9)
        ours = identical_distribution_test(a + b)
        reference = scipy_stats.ks_2samp(a, b)
        assert ours.statistic == pytest.approx(reference.statistic, abs=1e-12)
        assert ours.p_value == pytest.approx(reference.pvalue, abs=0.02)

    def test_identical_constant_samples_pass(self):
        result = identical_distribution_test([5.0] * 100)
        assert result.passed and result.p_value == 1.0

    def test_rejects_tiny_samples(self):
        # Ten observations make two halves of five, the fewest the test takes.
        with pytest.raises(ValueError, match="at least 10"):
            identical_distribution_test([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
        result = identical_distribution_test([float(i) for i in range(10)])
        assert result.details == "n_a=5, n_b=5"
        assert result.statistic == 1.0  # the halves do not overlap

    def test_identical_distribution_split_test(self):
        result = identical_distribution_test(gumbel_sample(600, seed=10))
        assert result.passed

    def test_identical_distribution_detects_drift(self):
        drifting = gumbel_sample(300, seed=11, loc=1000.0) + gumbel_sample(
            300, seed=12, loc=1400.0
        )
        assert not identical_distribution_test(drifting).passed

    def test_identical_distribution_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            identical_distribution_test([1.0] * 5)


class TestExponentialTail:
    def test_gumbel_sample_passes(self):
        result = exponential_tail_test(gumbel_sample(800, seed=13))
        assert result.passed

    def test_exponential_sample_passes(self):
        rng = np.random.default_rng(14)
        samples = list(rng.exponential(scale=100.0, size=800))
        assert exponential_tail_test(samples).passed

    def test_uniform_tail_fails(self):
        # A sharply bounded uniform tail is a poor exponential fit.
        rng = np.random.default_rng(15)
        samples = list(rng.uniform(0.0, 1.0, size=2000))
        result = exponential_tail_test(samples, tail_fraction=0.5)
        assert result.statistic > 0

    def test_constant_sample_trivially_passes(self):
        assert exponential_tail_test([7.0] * 100).passed

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            exponential_tail_test([1.0] * 10)

    def test_rejects_bad_tail_fraction(self):
        with pytest.raises(ValueError):
            exponential_tail_test(gumbel_sample(100), tail_fraction=0.9)


class TestStephensTable:
    """The ET p-value interpolates Stephens' critical-value table."""

    def test_tabulated_points_are_exact(self):
        for alpha, critical in STEPHENS_EXPONENTIAL_W2_POINTS:
            assert stephens_p_value(critical) == alpha
            assert stephens_critical_value(alpha) == pytest.approx(critical)

    def test_five_percent_boundary(self):
        # The historical hard-coded decision point: W2* = 0.224 at 5 %.
        assert stephens_critical_value(0.05) == 0.224
        assert stephens_p_value(0.224) == 0.05
        assert stephens_p_value(0.224 - 1e-9) > 0.05
        assert stephens_p_value(0.224 + 1e-9) < 0.05

    def test_p_value_monotone_decreasing(self):
        grid = np.linspace(0.0, 0.6, 200)
        values = [stephens_p_value(float(w)) for w in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_extrapolation_is_clamped(self):
        assert stephens_p_value(0.0) == 1.0
        assert stephens_p_value(1e-6) <= 1.0
        assert 0.0 < stephens_p_value(5.0) < 0.01

    def test_interpolation_between_points(self):
        # Between the 10 % (0.177) and 5 % (0.224) rows.
        middle = stephens_p_value(0.2)
        assert 0.05 < middle < 0.10

    def test_critical_value_rejects_bad_significance(self):
        with pytest.raises(ValueError):
            stephens_critical_value(0.0)
        with pytest.raises(ValueError):
            stephens_critical_value(1.0)

    def test_decision_at_boundary_matches_p_value(self):
        # A sample whose statistic lands near the critical point must have a
        # consistent (passed, p_value) pair.
        rng = np.random.default_rng(18)
        samples = list(rng.exponential(scale=100.0, size=400))
        result = exponential_tail_test(samples)
        assert result.passed == (result.statistic < 0.224)
        assert result.passed == (result.p_value > 0.05)

    def test_et_p_value_comes_from_table(self):
        result = exponential_tail_test(gumbel_sample(800, seed=13))
        assert result.p_value == stephens_p_value(result.statistic)


class TestIidAssessment:
    def test_iid_gumbel_sample_passes_all(self):
        assessment = iid_assessment(gumbel_sample(600, seed=16))
        assert assessment.passed
        ww, ks, et = assessment.as_row()
        assert ww < 1.96
        assert ks > 0.05

    def test_trending_sample_fails_overall(self):
        trending = list(np.linspace(0, 1000, 600))
        assessment = iid_assessment(trending)
        assert not assessment.passed

    def test_as_row_shape(self):
        row = iid_assessment(gumbel_sample(200, seed=17)).as_row()
        assert len(row) == 3
