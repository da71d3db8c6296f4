"""The batch pipeline is the one MBPTA implementation; scipy is its oracle.

Every statistic is computed once, over an ``(n_campaigns, n_runs)``
matrix, and the single-campaign names (``apply_mbpta``,
``iid_assessment``, ``fit_gumbel``, ...) are one-row views of it.  Two
properties are checked here, on the corner-case matrices of
:func:`sample_matrices` and, in :class:`TestAllStudiesEquality`, on the
campaigns of every registered study:

* a campaign's result does not depend on the campaigns batched with it:
  a row of a many-row batch equals the one-row view, exactly;
* each statistic agrees with scipy's: the KS distance with ``ks_2samp``
  (absolute 1e-12), the ET statistic with ``cramervonmises`` (relative
  1e-12), the PWM Gumbel fit with ``lmoment`` and the MLE fit with
  ``gumbel_r.fit`` (both relative 1e-12, the scale relative to the
  location's magnitude), and the runs test's p-value with ``2 * norm.sf``
  of a standard score from a runs count made here.
"""

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.analysis.experiments import ExperimentSettings
from repro.pwcet import (
    EULER_MASCHERONI,
    MBPTA_MIN_RUNS,
    MbptaConfig,
    apply_mbpta,
    apply_mbpta_batch,
    available_estimators,
    compare_estimators,
    fit_gumbel,
    fit_gumbel_batch,
    iid_assessment,
    iid_assessment_batch,
)
from repro.pwcet.admission import DEFAULT_TAIL_FRACTION, MIN_TAIL_EXCESSES
from repro.study import available_studies, get_study
from repro.study.runner import execute_scenarios

#: How closely each statistic must match scipy's (see the module docstring).
TOLERANCE = 1e-12


def assert_results_identical(batch, scalar):
    """Field-by-field exact equality of two MbptaResult objects."""
    assert batch.assessment == scalar.assessment
    assert batch.fit == scalar.fit
    assert batch.curve == scalar.curve
    assert batch.pwcet == scalar.pwcet
    assert batch.pwcet_ci == scalar.pwcet_ci
    assert batch.discarded_runs == scalar.discarded_runs
    assert batch.estimator == scalar.estimator
    assert list(batch.samples) == list(scalar.samples)


def check_runs_test(row, result):
    """The Wald-Wolfowitz result against a runs count made here."""
    median = np.median(row)
    signs = [value > median for value in row if value != median]
    n_pos = sum(signs)
    n_neg = len(signs) - n_pos
    if not n_pos or not n_neg:
        assert (result.statistic, result.passed) == (0.0, True)
        return
    runs = 1 + sum(a != b for a, b in zip(signs, signs[1:]))
    n = n_pos + n_neg
    expected = 2.0 * n_pos * n_neg / n + 1.0
    variance = 2.0 * n_pos * n_neg * (2.0 * n_pos * n_neg - n) / (n * n * (n - 1.0))
    score = abs(runs - expected) / math.sqrt(variance) if variance > 0 else 0.0
    assert result.details.startswith(f"runs={runs},")
    assert result.statistic == pytest.approx(score, rel=TOLERANCE, abs=TOLERANCE)
    assert result.p_value == pytest.approx(
        2 * scipy_stats.norm.sf(result.statistic), rel=TOLERANCE
    )


def check_ks_test(row, result):
    """The split-half KS distance against ``ks_2samp``."""
    half = len(row) // 2
    first, second = row[:half], row[half : 2 * half]
    if result.details == "degenerate identical samples":
        assert np.allclose(first, first[0]) and np.allclose(second, second[0])
        return
    expected = scipy_stats.ks_2samp(first, second).statistic
    assert abs(result.statistic - expected) <= TOLERANCE


def check_et_test(row, result):
    """The ET statistic against ``cramervonmises`` on the tail excesses."""
    ordered = np.sort(row)
    n_tail = max(int(len(row) * DEFAULT_TAIL_FRACTION), MIN_TAIL_EXCESSES)
    threshold = ordered[-n_tail - 1] if n_tail < len(row) else ordered[0]
    excesses = ordered[ordered > threshold] - threshold
    if len(excesses) < 5:
        assert (result.statistic, result.passed) == (0.0, True)
        return
    w2 = scipy_stats.cramervonmises(
        excesses, "expon", args=(0, excesses.mean())
    ).statistic
    assert result.statistic == pytest.approx(
        w2 * (1 + 0.16 / len(excesses)), rel=TOLERANCE
    )


def check_battery_against_scipy(matrix, assessments):
    for row, assessment in zip(np.asarray(matrix, dtype=float), assessments):
        check_runs_test(row, assessment.independence)
        check_ks_test(row, assessment.identical_distribution)
        check_et_test(row, assessment.gumbel_convergence)


def check_fit_against_scipy(row, fit, block_size):
    """A Gumbel fit of ``row``'s block maxima against scipy's: L-moments
    for PWM, ``gumbel_r.fit`` for MLE."""
    n_blocks = len(row) // block_size
    maxima = np.asarray(row[: n_blocks * block_size], dtype=float)
    maxima = maxima.reshape(n_blocks, block_size).max(axis=1)
    assert fit.sample_size == n_blocks
    if maxima.max() == maxima.min():
        assert fit.location == maxima[0] and fit.scale <= abs(maxima[0]) * 1e-9
        return
    if fit.method == "mle":
        location, scale = scipy_stats.gumbel_r.fit(maxima)
        # scipy evaluates the likelihood equation on the raw maxima, so its
        # rounding error scales with the location: on the rows of
        # near_degenerate_matrix its scale is up to 9.8e-12 of itself off
        # the exact root (50-digit arithmetic), where the fit's is exact.
        assert fit.scale == pytest.approx(scale, rel=TOLERANCE, abs=TOLERANCE * abs(location))
        assert fit.location == pytest.approx(location, rel=TOLERANCE)
        return
    l1, l2 = scipy_stats.lmoment(maxima, order=[1, 2])
    scale = l2 / math.log(2.0)
    # The L-scale is a difference of sums of magnitude |l1|, so its rounding
    # error scales with |l1|: a 4-cycle scale at a 12,513-cycle location
    # (a study campaign at 24 runs) differs from scipy's by 6e-13 of itself.
    assert fit.scale == pytest.approx(scale, rel=TOLERANCE, abs=TOLERANCE * abs(l1))
    assert fit.location == pytest.approx(
        l1 - EULER_MASCHERONI * scale, rel=TOLERANCE
    )


def sample_matrices():
    """Corner-case matrices: ties, odd lengths, degenerate and trending rows."""
    rng = np.random.default_rng(7)
    rounded = np.round(
        scipy_stats.gumbel_r.rvs(loc=20000, scale=300, size=(12, 300), random_state=rng)
    )
    odd = scipy_stats.gumbel_r.rvs(loc=5000, scale=90, size=(9, 253), random_state=rng)
    mixed = np.vstack(
        [
            np.full((2, 40), 1234.0),  # fully degenerate
            np.linspace(0.0, 1000.0, 40)[None, :].repeat(2, axis=0),  # trending
            np.round(  # heavy ties at the threshold
                scipy_stats.gumbel_r.rvs(loc=100, scale=2, size=(8, 40), random_state=rng)
            ),
        ]
    )
    return {"rounded": rounded, "odd-length": odd, "mixed": mixed}


def near_degenerate_matrix():
    """Rows one to four cycles off a constant in two runs, and a constant
    row with one run far above it: MLE roots of a tiny scale and at the
    top of the solver's bracket."""
    rng = np.random.default_rng(9)
    matrix = np.full((7, 40), 12513.0)
    for row in matrix[:6]:
        row[rng.integers(0, 40, size=2)] += rng.integers(1, 5, size=2)
    matrix[6, -1] = 1e6
    return matrix


class TestAdmissionBatteryEquality:
    @pytest.mark.parametrize("name", ["rounded", "odd-length", "mixed"])
    def test_iid_assessment_batch_bitwise_equal(self, name):
        matrix = sample_matrices()[name]
        batch = iid_assessment_batch(matrix)
        for row, assessment in zip(matrix, batch):
            assert assessment == iid_assessment(list(row))
        check_battery_against_scipy(matrix, batch)

    def test_batch_rejects_1d_input(self):
        with pytest.raises(ValueError, match="2-D"):
            iid_assessment_batch(np.arange(40.0))


class TestFitBatchEquality:
    @pytest.mark.parametrize("block_size", [1, 2, 7, 20])
    def test_fit_gumbel_batch_bitwise_equal(self, block_size):
        for matrix in sample_matrices().values():
            batch = fit_gumbel_batch(matrix, block_size=block_size)
            for row, fit in zip(matrix, batch):
                assert fit == fit_gumbel(list(row), block_size=block_size)
                check_fit_against_scipy(row, fit, block_size)

    def test_mle_batch_matches_loop(self):
        rounded, mixed = sample_matrices()["rounded"][:3], sample_matrices()["mixed"]
        near = near_degenerate_matrix()
        for matrix, block_size in ((rounded, 5), (mixed, 4), (near, 1), (near, 2)):
            batch = fit_gumbel_batch(matrix, block_size=block_size, method="mle")
            for row, fit in zip(matrix, batch):
                assert fit == fit_gumbel(list(row), block_size=block_size, method="mle")
                check_fit_against_scipy(row, fit, block_size)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown fit method"):
            fit_gumbel_batch(sample_matrices()["mixed"], method="moments")


class TestPipelineEquality:
    @pytest.mark.parametrize("estimator", ["gumbel-pwm", "gumbel-mle", "exponential-excess"])
    @pytest.mark.parametrize("name", ["rounded", "mixed"])
    def test_batch_equals_scalar_loop(self, estimator, name):
        matrix = sample_matrices()[name]
        config = MbptaConfig()
        batch = apply_mbpta_batch(matrix, config=config, estimator=estimator)
        for row, result in zip(matrix, batch):
            assert_results_identical(
                result, apply_mbpta(list(row), config=config, estimator=estimator)
            )

    @pytest.mark.parametrize(
        "estimator", ["gumbel-pwm", "gumbel-mle", "exponential-excess"]
    )
    def test_bootstrap_intervals_identical(self, estimator):
        """The vectorized CI projection is bit-identical to the loop for
        every registered curve family (Gumbel and exponential-tail)."""
        matrix = sample_matrices()["rounded"][:4]
        config = MbptaConfig(bootstrap=30)
        batch = apply_mbpta_batch(matrix, config=config, estimator=estimator)
        for row, result in zip(matrix, batch):
            scalar = apply_mbpta(list(row), config=config, estimator=estimator)
            assert result.pwcet_ci == scalar.pwcet_ci
            for low, high in result.pwcet_ci.values():
                assert low <= high

    def test_batch_pwcet_projection_matches_scalar_curves(self):
        """_pwcet_values_batch == the per-curve scalar loop, bitwise,
        including degenerate (near-constant) resamples."""
        from repro.pwcet.protocol import _pwcet_values_batch
        from repro.pwcet.registry import get_estimator

        matrix = np.vstack(
            [
                sample_matrices()["rounded"][:3],
                # Near-constant campaign: exercises the degenerate-tail
                # fallback fits (pinned threshold, epsilon scale).
                np.full((1, sample_matrices()["rounded"].shape[1]), 500.0)
                + np.arange(sample_matrices()["rounded"].shape[1]) * 1e-9,
            ]
        )
        config = MbptaConfig()
        for name in ("gumbel-pwm", "exponential-excess"):
            estimates = get_estimator(name).fit_batch(matrix, config)
            for probability in (1e-12, 1e-15, 0.5):
                batch = _pwcet_values_batch(estimates, probability)
                loop = [e.curve.pwcet(probability) for e in estimates]
                assert batch.tolist() == loop

    def test_bootstrap_deterministic(self):
        matrix = sample_matrices()["rounded"][:2]
        config = MbptaConfig(bootstrap=20)
        first = apply_mbpta_batch(matrix, config=config)
        second = apply_mbpta_batch(matrix, config=config)
        assert [r.pwcet_ci for r in first] == [r.pwcet_ci for r in second]

    def test_rejects_under_minimum_runs(self):
        with pytest.raises(ValueError, match="at least"):
            apply_mbpta_batch(np.ones((3, MBPTA_MIN_RUNS - 1)))

    def test_ragged_input_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            apply_mbpta_batch([[1.0] * 24, [1.0] * 30])

    def test_flat_sample_rejected_with_clear_error(self):
        # A single campaign passed without the enclosing list is the most
        # likely caller mistake; it must get the shape error, not a
        # TypeError from the row iteration.
        with pytest.raises(ValueError, match="2-D"):
            apply_mbpta_batch([1.0] * 30)

    def test_require_iid_names_failing_campaign(self):
        matrix = np.vstack(
            [
                np.round(
                    scipy_stats.gumbel_r.rvs(
                        loc=100, scale=10, size=(1, 300),
                        random_state=np.random.default_rng(3),
                    )
                ),
                np.linspace(0.0, 1000.0, 300)[None, :],
            ]
        )
        with pytest.raises(ValueError, match="campaign 1 failed"):
            apply_mbpta_batch(matrix, require_iid=True)


class TestAllStudiesEquality:
    """Every registered study's campaigns, analysed through the result set's
    batches: each equals its one-row analysis and agrees with scipy."""

    SETTINGS = ExperimentSettings(runs=24, scale=0.25)

    @pytest.mark.parametrize("study_name", sorted(available_studies()))
    def test_batched_pipeline_matches_per_campaign_path(self, study_name):
        study = get_study(study_name)
        scenarios = study.plan(self.SETTINGS)
        if not any(scenario.runs >= MBPTA_MIN_RUNS for scenario in scenarios):
            pytest.skip(f"{study_name} runs no MBPTA-eligible campaigns")
        results = execute_scenarios(scenarios, mbpta=self.SETTINGS.mbpta_config())
        eligible = [
            outcome for outcome in results if outcome.campaign.runs >= MBPTA_MIN_RUNS
        ]
        assert eligible, f"{study_name} produced no eligible campaigns"
        for estimator in ("gumbel-pwm", "gumbel-mle"):
            config = results.analysis_config(estimator)
            for outcome in eligible:
                times = outcome.campaign.execution_times
                batched = results.mbpta(outcome.label, estimator)
                assert_results_identical(batched, apply_mbpta(times, config=config))
                check_battery_against_scipy([times], [batched.assessment])
                check_fit_against_scipy(times, batched.fit, batched.curve.block_size)


class TestCompareEstimators:
    def test_cross_view_over_all_estimators(self):
        rng = np.random.default_rng(11)
        samples = {
            "a": list(
                np.round(
                    scipy_stats.gumbel_r.rvs(
                        loc=20000, scale=300, size=240, random_state=rng
                    )
                )
            ),
            "b": list(
                np.round(
                    scipy_stats.gumbel_r.rvs(
                        loc=30000, scale=150, size=300, random_state=rng
                    )
                )
            ),
        }
        comparison = compare_estimators(samples)
        assert comparison.labels == ["a", "b"]
        assert set(comparison.estimators) == set(available_estimators())
        for label in samples:
            for name in comparison.estimators:
                assert comparison.pwcet(label, name, 1e-15) > max(samples[label])
        rendered = comparison.format()
        assert "pWCET gumbel-pwm" in rendered
        assert "i.i.d. ok" in rendered

    def test_matches_apply_mbpta(self):
        rng = np.random.default_rng(12)
        samples = {
            "only": list(
                scipy_stats.gumbel_r.rvs(loc=500, scale=20, size=200, random_state=rng)
            )
        }
        comparison = compare_estimators(samples, estimators=["gumbel-pwm"])
        direct = apply_mbpta(samples["only"])
        assert comparison.cells["only"]["gumbel-pwm"]["pwcet"] == direct.pwcet

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ValueError, match="registered estimators"):
            compare_estimators({"a": [1.0] * 40}, estimators=["weibull"])

    def test_rejects_short_campaign(self):
        with pytest.raises(ValueError, match="at least"):
            compare_estimators({"a": [1.0] * 10})
