"""Tests for the MBPTA protocol wrapper."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.pwcet.protocol import MbptaConfig, apply_mbpta


def gumbel_sample(n, seed=0, loc=20000.0, scale=300.0):
    rng = np.random.default_rng(seed)
    return list(scipy_stats.gumbel_r.rvs(loc=loc, scale=scale, size=n, random_state=rng))


class TestConfig:
    def test_defaults(self):
        config = MbptaConfig()
        assert config.block_size == 20
        assert 1e-15 in config.exceedance_probabilities

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            MbptaConfig(block_size=0)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            MbptaConfig(exceedance_probabilities=(2.0,))

    @pytest.mark.parametrize(
        "cutoffs", [(1e-15, 1e-12), (1e-12, 1e-15, 1e-15), [1e-15, 1e-12, 1e-12]]
    )
    def test_one_set_of_cutoffs_is_one_analysis(self, cutoffs):
        # Sorted descending, duplicates removed: the default's hash, so the
        # default analysis is not fitted and stored a second time.
        config = MbptaConfig(exceedance_probabilities=cutoffs)
        assert config.exceedance_probabilities == (1e-12, 1e-15)
        assert config.analysis_hash() == MbptaConfig().analysis_hash()

    @pytest.mark.parametrize(
        "cutoffs, canonical",
        [
            ((1e-9, 1e-12, 1e-9), (1e-9, 1e-12)),
            ((1e-15, 1e-9, 1e-12), (1e-9, 1e-12, 1e-15)),
            ((1e-15,), (1e-15,)),
        ],
    )
    def test_cutoffs_are_kept_descending_and_unique(self, cutoffs, canonical):
        config = MbptaConfig(exceedance_probabilities=cutoffs)
        assert config.exceedance_probabilities == canonical
        assert (
            config.analysis_hash()
            == MbptaConfig(exceedance_probabilities=canonical).analysis_hash()
        )

    def test_another_set_of_cutoffs_is_another_analysis(self):
        # Canonical order merges spellings of one set, never two sets.
        default = MbptaConfig().analysis_hash()
        for cutoffs in ((1e-12,), (1e-15,), (1e-9, 1e-12, 1e-15)):
            assert MbptaConfig(exceedance_probabilities=cutoffs).analysis_hash() != default


class TestApplyMbpta:
    def test_end_to_end_on_iid_sample(self):
        samples = gumbel_sample(600, seed=1)
        result = apply_mbpta(samples)
        assert result.iid_passed
        assert result.pwcet[1e-15] > result.pwcet[1e-12] > max(samples) * 0.9
        assert result.high_water_mark == max(samples)
        assert result.mean == pytest.approx(np.mean(samples))

    def test_pwcet_exceeds_all_observations(self):
        samples = gumbel_sample(400, seed=2)
        result = apply_mbpta(samples)
        assert result.pwcet_at(1e-15) > max(samples)

    def test_degenerate_sample_pwcet_equals_observation(self):
        result = apply_mbpta([12345.0] * 100)
        assert result.pwcet_at(1e-15) == pytest.approx(12345.0, rel=1e-6)
        assert result.iid_passed

    def test_block_size_is_capped_for_small_samples(self):
        result = apply_mbpta(gumbel_sample(40, seed=3), config=MbptaConfig(block_size=50))
        assert result.curve.block_size <= 4

    def test_require_iid_raises_on_trending_sample(self):
        trending = list(np.linspace(0.0, 1000.0, 300))
        with pytest.raises(ValueError):
            apply_mbpta(trending, require_iid=True)

    def test_non_iid_sample_still_produces_result_by_default(self):
        trending = list(np.linspace(0.0, 1000.0, 300))
        result = apply_mbpta(trending)
        assert not result.iid_passed
        assert result.pwcet_at(1e-12) > 1000.0

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            apply_mbpta([1.0] * 10)

    def test_summary_contains_expected_keys(self):
        result = apply_mbpta(gumbel_sample(200, seed=4))
        summary = result.summary()
        for key in ("runs", "mean", "hwm", "ww_statistic", "ks_p_value", "gumbel_scale"):
            assert key in summary
        assert any(key.startswith("pwcet@") for key in summary)

    def test_custom_cutoffs(self):
        config = MbptaConfig(exceedance_probabilities=(1e-6, 1e-9))
        result = apply_mbpta(gumbel_sample(200, seed=5), config=config)
        assert set(result.pwcet) == {1e-6, 1e-9}

    def test_mle_fit_method(self):
        config = MbptaConfig(fit_method="mle")
        result = apply_mbpta(gumbel_sample(300, seed=6), config=config)
        assert result.fit.method == "mle"
        assert result.pwcet_at(1e-12) > result.high_water_mark


class TestDiscardedRuns:
    """block_maxima drops a trailing partial block; the result reports it."""

    def test_non_multiple_sample_reports_discard(self):
        # 25 runs with an effective block size of min(20, 25 // 10) = 2:
        # 12 blocks cover 24 runs, one run is dropped.
        result = apply_mbpta(gumbel_sample(25, seed=7))
        assert result.curve.block_size == 2
        assert result.discarded_runs == 1
        assert result.summary()["discarded_runs"] == 1.0

    def test_multiple_sample_discards_nothing(self):
        result = apply_mbpta(gumbel_sample(300, seed=8))
        assert result.curve.block_size == 20
        assert result.discarded_runs == 0

    def test_block_size_one_discards_nothing(self):
        result = apply_mbpta(gumbel_sample(23, seed=9), config=MbptaConfig(block_size=1))
        assert result.curve.block_size == 1
        assert result.discarded_runs == 0


class TestBootstrapIntervals:
    def test_disabled_by_default(self):
        result = apply_mbpta(gumbel_sample(100, seed=10))
        assert result.pwcet_ci == {}

    def test_intervals_bracket_reasonably(self):
        config = MbptaConfig(bootstrap=60)
        result = apply_mbpta(gumbel_sample(400, seed=11), config=config)
        assert set(result.pwcet_ci) == set(config.exceedance_probabilities)
        for probability, (low, high) in result.pwcet_ci.items():
            assert low <= high
            # The interval is around the point estimate's order of magnitude.
            assert low < result.pwcet[probability] * 1.5
            assert high > result.pwcet[probability] * 0.5
        summary = result.summary()
        assert "pwcet@1e-15_ci_low" in summary
        assert "pwcet@1e-15_ci_high" in summary
