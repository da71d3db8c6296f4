"""Tests for the EVT / Gumbel machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.pwcet.evt import (
    GumbelFit,
    PWcetCurve,
    block_maxima,
    empirical_ccdf,
    fit_gumbel,
)


class TestBlockMaxima:
    def test_basic(self):
        assert block_maxima([1, 5, 2, 8, 3, 9], 2) == [5, 8, 9]

    def test_partial_block_discarded(self):
        assert block_maxima([1, 2, 3, 4, 5], 2) == [2, 4]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            block_maxima([1], 2)

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            block_maxima([1, 2], 0)


class TestGumbelFit:
    def test_cdf_survival_complement(self):
        fit = GumbelFit(location=100.0, scale=5.0)
        for value in (80, 100, 120, 200):
            assert fit.cdf(value) + fit.survival(value) == pytest.approx(1.0)

    def test_quantile_inverts_survival(self):
        fit = GumbelFit(location=100.0, scale=5.0)
        for probability in (0.5, 1e-3, 1e-9, 1e-15):
            assert fit.survival(fit.quantile(probability)) == pytest.approx(
                probability, rel=1e-6
            )

    def test_quantile_monotone_in_probability(self):
        fit = GumbelFit(location=0.0, scale=1.0)
        assert fit.quantile(1e-15) > fit.quantile(1e-12) > fit.quantile(1e-3)

    def test_mean(self):
        fit = GumbelFit(location=10.0, scale=2.0)
        assert fit.mean == pytest.approx(10.0 + 0.5772156649 * 2.0)

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ValueError):
            GumbelFit(location=0.0, scale=0.0)

    def test_quantile_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            GumbelFit(0.0, 1.0).quantile(0.0)

    def test_matches_scipy_gumbel(self):
        fit = GumbelFit(location=50.0, scale=7.0)
        for value in (40.0, 55.0, 90.0):
            assert fit.cdf(value) == pytest.approx(
                stats.gumbel_r.cdf(value, loc=50.0, scale=7.0)
            )


class TestFitGumbel:
    def test_recovers_known_parameters_pwm(self):
        rng = np.random.default_rng(1)
        samples = stats.gumbel_r.rvs(loc=1000.0, scale=30.0, size=4000, random_state=rng)
        fit = fit_gumbel(samples, method="pwm")
        assert fit.location == pytest.approx(1000.0, rel=0.02)
        assert fit.scale == pytest.approx(30.0, rel=0.10)

    def test_recovers_known_parameters_mle(self):
        rng = np.random.default_rng(2)
        samples = stats.gumbel_r.rvs(loc=500.0, scale=12.0, size=3000, random_state=rng)
        fit = fit_gumbel(samples, method="mle")
        assert fit.location == pytest.approx(500.0, rel=0.02)
        assert fit.scale == pytest.approx(12.0, rel=0.10)

    def test_degenerate_sample_gets_tiny_scale(self):
        fit = fit_gumbel([100.0] * 50)
        assert fit.location == pytest.approx(100.0)
        assert fit.scale < 1e-6

    def test_block_maxima_shift_location_upwards(self):
        rng = np.random.default_rng(3)
        samples = list(stats.gumbel_r.rvs(loc=100.0, scale=10.0, size=2000, random_state=rng))
        raw = fit_gumbel(samples, block_size=1)
        blocked = fit_gumbel(samples, block_size=20)
        assert blocked.location > raw.location

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_gumbel([1.0])

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            fit_gumbel([1.0, 2.0, 3.0], method="moments")

    @given(
        location=st.floats(10, 1e6),
        scale=st.floats(0.5, 1e4),
    )
    @settings(max_examples=20, deadline=None)
    def test_fit_is_scale_equivariant(self, location, scale):
        rng = np.random.default_rng(7)
        base = stats.gumbel_r.rvs(loc=0.0, scale=1.0, size=500, random_state=rng)
        fit = fit_gumbel(list(location + scale * base), method="pwm")
        assert fit.location == pytest.approx(location, rel=0.2, abs=3 * scale)
        assert fit.scale == pytest.approx(scale, rel=0.3, abs=location * 1e-9)


class TestPWcetCurve:
    def test_pwcet_monotone_in_cutoff(self):
        curve = PWcetCurve(GumbelFit(location=1000.0, scale=20.0), block_size=10)
        assert curve.pwcet(1e-15) > curve.pwcet(1e-12) > curve.pwcet(1e-6)

    def test_exceedance_inverts_pwcet(self):
        curve = PWcetCurve(GumbelFit(location=1000.0, scale=20.0), block_size=10)
        for probability in (1e-6, 1e-12):
            assert curve.exceedance(curve.pwcet(probability)) == pytest.approx(
                probability, rel=1e-6
            )

    def test_block_size_deflates_per_run_exceedance(self):
        # For the *same* block-maxima fit, declaring a larger block size
        # means each run contributes a smaller share of the block's
        # exceedance probability, so the per-run pWCET at a fixed cutoff is
        # lower (in practice larger blocks also shift the fit upwards,
        # which is covered by test_block_maxima_shift_location_upwards).
        fit = GumbelFit(location=1000.0, scale=20.0)
        small = PWcetCurve(fit, block_size=1).pwcet(1e-12)
        large = PWcetCurve(fit, block_size=50).pwcet(1e-12)
        assert large <= small
        assert PWcetCurve(fit, block_size=50).exceedance(small) <= 1e-12

    def test_ccdf_points_are_monotone(self):
        curve = PWcetCurve(GumbelFit(location=1000.0, scale=20.0), block_size=10)
        points = curve.ccdf_points(min_probability=1e-16, points_per_decade=2)
        values = [value for value, _ in points]
        probabilities = [probability for _, probability in points]
        assert values == sorted(values)
        assert probabilities == sorted(probabilities, reverse=True)

    def test_rejects_bad_probability(self):
        curve = PWcetCurve(GumbelFit(0.0, 1.0))
        with pytest.raises(ValueError):
            curve.pwcet(0.0)
        with pytest.raises(ValueError):
            curve.ccdf_points(min_probability=0.0)


class TestEmpiricalCcdf:
    def test_simple_case(self):
        points = empirical_ccdf([1, 2, 2, 4])
        assert points[0] == (1.0, 0.75)
        assert points[-1] == (4.0, 0.0)

    def test_probabilities_decrease(self):
        points = empirical_ccdf([5, 1, 3, 3, 2, 8, 13])
        probabilities = [probability for _, probability in points]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            empirical_ccdf([])

    def test_gumbel_sample_ccdf_close_to_model(self):
        rng = np.random.default_rng(5)
        fit = GumbelFit(location=200.0, scale=10.0)
        samples = stats.gumbel_r.rvs(loc=200.0, scale=10.0, size=5000, random_state=rng)
        points = empirical_ccdf(list(samples))
        mid_value, mid_probability = points[len(points) // 2]
        assert fit.survival(mid_value) == pytest.approx(mid_probability, abs=0.05)
