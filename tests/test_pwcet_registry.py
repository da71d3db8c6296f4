"""Tests for the pWCET estimator registry and the built-in estimators."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.analysis.campaign import CampaignResult
from repro.pwcet import (
    Estimator,
    ExponentialTailFit,
    GumbelFit,
    MbptaConfig,
    PWcetCurve,
    TailEstimate,
    apply_mbpta,
    available_estimators,
    estimator_capabilities,
    get_estimator,
    register_estimator,
    unregister_estimator,
)
from repro.study import (
    HierarchySpec,
    ResultSet,
    Scenario,
    ScenarioOutcome,
    WorkloadSpec,
)


def gumbel_sample(n, seed=0, loc=20000.0, scale=300.0):
    rng = np.random.default_rng(seed)
    return list(scipy_stats.gumbel_r.rvs(loc=loc, scale=scale, size=n, random_state=rng))


class TestRegistry:
    def test_builtins_registered(self):
        assert set(available_estimators()) >= {
            "gumbel-pwm",
            "gumbel-mle",
            "exponential-excess",
        }

    def test_unknown_estimator_lists_registered(self):
        with pytest.raises(ValueError, match="registered estimators.*gumbel-pwm"):
            get_estimator("weibull")

    def test_capability_matrix(self):
        capabilities = estimator_capabilities()
        assert capabilities["gumbel-pwm"]["supports_batch"]
        assert capabilities["gumbel-pwm"]["needs_block_maxima"]
        assert capabilities["gumbel-mle"]["supports_batch"]
        assert not capabilities["exponential-excess"]["needs_block_maxima"]

    def test_register_requires_concrete_name(self):
        class Nameless(Estimator):
            def fit_batch(self, matrix, config):  # pragma: no cover - never called
                raise NotImplementedError

        with pytest.raises(ValueError, match="concrete name"):
            register_estimator(Nameless())

    def test_duplicate_registration_needs_replace(self):
        with pytest.raises(ValueError, match="already registered"):
            register_estimator(get_estimator("gumbel-pwm"))
        register_estimator(get_estimator("gumbel-pwm"), replace=True)

    def test_custom_estimator_round_trip(self):
        """An estimator implementing only fit_batch runs through every
        analysis entry point."""

        class Constant(Estimator):
            name = "constant-test"

            def fit_batch(self, matrix, config):
                fits = [GumbelFit(float(max(row)), scale=1.0) for row in matrix]
                return [TailEstimate(fit, PWcetCurve(fit=fit)) for fit in fits]

        samples = {"a": gumbel_sample(100, seed=1), "b": gumbel_sample(100, seed=2)}
        results = ResultSet(
            [
                ScenarioOutcome(
                    scenario=Scenario(
                        workload=WorkloadSpec.synthetic(4096, 2),
                        hierarchy=HierarchySpec.named("rm"),
                        runs=100,
                        label=label,
                    ),
                    campaign=CampaignResult("w", "rm", times),
                )
                for label, times in samples.items()
            ]
        )
        register_estimator(Constant())
        try:
            result = apply_mbpta(samples["a"], estimator="constant-test")
            assert result.estimator == "constant-test"
            assert result.fit.location == max(samples["a"])
            assert results.mbpta("b", "constant-test").fit.location == max(samples["b"])
            comparison = results.compare_estimators(["constant-test", "gumbel-pwm"])
            assert comparison.cells["a"]["constant-test"]["pwcet"] == result.pwcet
        finally:
            unregister_estimator("constant-test")
        assert "constant-test" not in available_estimators()


class TestConfigResolution:
    def test_legacy_fit_method_aliases(self):
        assert MbptaConfig(fit_method="pwm").estimator_name == "gumbel-pwm"
        assert MbptaConfig(fit_method="mle").estimator_name == "gumbel-mle"
        assert (
            MbptaConfig(fit_method="exponential-excess").estimator_name
            == "exponential-excess"
        )

    def test_unknown_estimator_raises_at_apply(self):
        with pytest.raises(ValueError, match="registered estimators"):
            apply_mbpta(gumbel_sample(50), estimator="weibull")

    def test_analysis_hash_depends_on_estimator(self):
        base = MbptaConfig()
        assert base.analysis_hash() != MbptaConfig(fit_method="mle").analysis_hash()
        assert base.analysis_hash() == MbptaConfig(fit_method="gumbel-pwm").analysis_hash()
        assert base.analysis_hash() != MbptaConfig(bootstrap=50).analysis_hash()

    def test_bootstrap_must_be_non_negative(self):
        with pytest.raises(ValueError):
            MbptaConfig(bootstrap=-1)


class TestGumbelEstimators:
    def test_pwm_is_the_default(self):
        samples = gumbel_sample(300, seed=1)
        assert apply_mbpta(samples).estimator == "gumbel-pwm"

    def test_registry_name_matches_legacy_fit_method(self):
        samples = gumbel_sample(300, seed=2)
        by_alias = apply_mbpta(samples, config=MbptaConfig(fit_method="mle"))
        by_name = apply_mbpta(samples, estimator="gumbel-mle")
        assert by_alias.fit == by_name.fit
        assert by_alias.pwcet == by_name.pwcet
        assert by_name.estimator == "gumbel-mle"

    def test_mle_differs_from_pwm(self):
        samples = gumbel_sample(300, seed=3)
        pwm = apply_mbpta(samples, estimator="gumbel-pwm")
        mle = apply_mbpta(samples, estimator="gumbel-mle")
        assert pwm.fit.location != mle.fit.location


class TestExponentialExcess:
    def test_pwcet_exceeds_observations(self):
        samples = gumbel_sample(400, seed=4)
        result = apply_mbpta(samples, estimator="exponential-excess")
        assert result.estimator == "exponential-excess"
        assert isinstance(result.fit, ExponentialTailFit)
        assert result.pwcet_at(1e-15) > max(samples)
        assert result.pwcet_at(1e-15) > result.pwcet_at(1e-12)

    def test_no_discarded_runs(self):
        # 25 runs is not a multiple of the effective block size, but a
        # peaks-over-threshold estimator consumes the raw sample.
        result = apply_mbpta(gumbel_sample(25, seed=5), estimator="exponential-excess")
        assert result.discarded_runs == 0

    def test_quantile_inverts_survival_in_tail(self):
        fit = ExponentialTailFit(threshold=1000.0, scale=25.0, exceedance_rate=0.25)
        for probability in (1e-3, 1e-9, 1e-15):
            assert fit.survival(fit.quantile(probability)) == pytest.approx(
                probability, rel=1e-9
            )

    def test_quantile_clamps_to_threshold_outside_tail(self):
        fit = ExponentialTailFit(threshold=1000.0, scale=25.0, exceedance_rate=0.25)
        assert fit.quantile(0.5) == 1000.0

    def test_degenerate_sample_pins_to_maximum(self):
        result = apply_mbpta([4321.0] * 60, estimator="exponential-excess")
        assert result.pwcet_at(1e-15) == pytest.approx(4321.0, rel=1e-6)

    def test_ccdf_points_monotone(self):
        result = apply_mbpta(gumbel_sample(400, seed=6), estimator="exponential-excess")
        points = result.curve.ccdf_points(min_probability=1e-16, points_per_decade=2)
        values = [value for value, _ in points]
        assert values == sorted(values)

    def test_summary_labels_fit_parameters_neutrally(self):
        samples = gumbel_sample(300, seed=7)
        pot = apply_mbpta(samples, estimator="exponential-excess").summary()
        assert pot["fit_location"] == pytest.approx(
            apply_mbpta(samples, estimator="exponential-excess").fit.threshold
        )
        # No gumbel_* keys for a non-Gumbel fit; kept for Gumbel estimators.
        assert "gumbel_location" not in pot
        gumbel = apply_mbpta(samples).summary()
        assert gumbel["gumbel_location"] == gumbel["fit_location"]
