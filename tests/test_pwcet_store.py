"""Analysis persistence: (spec_hash, analysis_config_hash)-keyed pWCET
results, ResultSet memoization and the zero-EVT-fits warm path."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

import repro.pwcet.registry as pwcet_registry
from repro.analysis.experiments import ExperimentSettings
from repro.pwcet import (
    MbptaConfig,
    analysis_from_payload,
    analysis_payload,
    apply_mbpta,
)
from repro.study import (
    HierarchySpec,
    ResultStore,
    Scenario,
    WorkloadSpec,
    get_study,
)
from repro.study.runner import execute_scenarios


def gumbel_sample(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        float(v)
        for v in np.round(
            scipy_stats.gumbel_r.rvs(loc=20000, scale=300, size=n, random_state=rng)
        )
    ]


def tiny_scenarios(runs=24):
    workload = WorkloadSpec.synthetic(4 * 1024, iterations=2)
    return [
        Scenario(workload=workload, hierarchy=HierarchySpec.named(setup), runs=runs,
                 master_seed=77, label=setup)
        for setup in ("rm", "hrp")
    ]


class _FitCounter:
    """Wraps every registered estimator to count fit/fit_batch calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        for name in pwcet_registry.available_estimators():
            estimator = pwcet_registry.get_estimator(name)
            for method_name in ("fit", "fit_batch"):
                original = getattr(estimator.__class__, method_name)
                monkeypatch.setattr(
                    estimator.__class__,
                    method_name,
                    self._wrap(original),
                    raising=True,
                )

    def _wrap(self, original):
        counter = self

        def wrapped(estimator_self, *args, **kwargs):
            counter.calls += 1
            return original(estimator_self, *args, **kwargs)

        return wrapped


class TestPayloadRoundTrip:
    @pytest.mark.parametrize(
        "estimator", ["gumbel-pwm", "gumbel-mle", "exponential-excess"]
    )
    def test_round_trip_is_exact(self, estimator):
        samples = gumbel_sample(300, seed=1)
        config = MbptaConfig(bootstrap=10)
        original = apply_mbpta(samples, config=config, estimator=estimator)
        import json

        payload = json.loads(json.dumps(analysis_payload(original)))
        rebuilt = analysis_from_payload(payload, samples)
        assert rebuilt is not None
        assert rebuilt.fit == original.fit
        assert rebuilt.curve == original.curve
        assert rebuilt.assessment == original.assessment
        assert rebuilt.pwcet == original.pwcet
        assert rebuilt.pwcet_ci == original.pwcet_ci
        assert rebuilt.discarded_runs == original.discarded_runs
        assert rebuilt.estimator == original.estimator
        assert rebuilt.config == original.config
        assert rebuilt.pwcet_at(1e-15) == original.pwcet_at(1e-15)

    def test_missing_or_malformed_payloads_are_misses(self):
        assert analysis_from_payload(None, [1.0] * 20) is None
        assert analysis_from_payload({"version": 999}, [1.0] * 20) is None
        assert analysis_from_payload({"version": 1}, [1.0] * 20) is None  # truncated


class TestStoreAnalysisEntries:
    def test_save_and_load(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        payload = {"version": 1, "anything": [1, 2]}
        store.save_analysis("spec" * 16, "cfg" * 21 + "c", payload)
        assert store.load_analysis("spec" * 16, "cfg" * 21 + "c") == payload
        assert store.analysis_keys() == [("spec" * 16, "cfg" * 21 + "c")]
        # Campaign keys are unaffected by analysis entries.
        assert store.keys() == []

    def test_corrupt_analysis_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.save_analysis("a", "b", {"version": 1})
        store.analysis_path_for("a", "b").write_text("{not json")
        assert store.load_analysis("a", "b") is None

    def test_clear_removes_analyses(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.save_analysis("a", "b", {"version": 1})
        assert store.clear() == 1
        assert store.analysis_keys() == []


class TestResultSetMemoization:
    def test_mbpta_is_memoized_per_estimator(self):
        results = execute_scenarios(tiny_scenarios())
        first = results.mbpta("rm")
        assert results.mbpta("rm") is first
        other = results.mbpta("rm", estimator="exponential-excess")
        assert other is not first
        assert results.mbpta("rm", estimator="exponential-excess") is other
        # The default-estimator memo is untouched by the override.
        assert results.mbpta("rm") is first

    def test_first_call_batches_the_whole_set(self, monkeypatch):
        counter = _FitCounter(monkeypatch)
        results = execute_scenarios(tiny_scenarios())
        results.mbpta("rm")
        calls_after_first = counter.calls
        # Both scenarios share (runs, config): one fit_batch call covers them.
        assert calls_after_first == 1
        results.mbpta("hrp")
        assert counter.calls == calls_after_first

    def test_store_round_trip_is_exact(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cold = execute_scenarios(tiny_scenarios(), store=store)
        cold_rm = cold.mbpta("rm")
        assert store.analysis_keys()  # analyses persisted
        warm = execute_scenarios(tiny_scenarios(), store=store)
        assert warm.report.full_cache_hit
        warm_rm = warm.mbpta("rm")
        assert warm_rm.fit == cold_rm.fit
        assert warm_rm.pwcet == cold_rm.pwcet
        assert warm_rm.assessment == cold_rm.assessment
        assert list(warm_rm.samples) == list(cold_rm.samples)

    def test_no_cache_ignores_stored_analyses(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        cold = execute_scenarios(tiny_scenarios(), store=store)
        cold.mbpta("rm")
        counter = _FitCounter(monkeypatch)
        fresh = execute_scenarios(tiny_scenarios(), store=store, use_cache=False)
        fresh.mbpta("rm")
        assert counter.calls > 0


class TestZeroEvtFitsOnWarmStore:
    """Acceptance criterion: a second ``study run`` performs zero EVT fits."""

    SETTINGS = ExperimentSettings(runs=24, scale=0.25)

    def test_second_fig5_run_fits_nothing(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        study = get_study("fig5")
        study.run(self.SETTINGS, store=store)
        assert store.analysis_keys()
        counter = _FitCounter(monkeypatch)
        warm = study.run(self.SETTINGS, store=store)
        assert warm.report.full_cache_hit
        assert counter.calls == 0

    def test_result_set_compare_estimators_reuses_cache(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        cold = execute_scenarios(tiny_scenarios(), store=store)
        cold_comparison = cold.compare_estimators()
        # Warm path: campaigns and every estimator's analysis come from disk.
        warm = execute_scenarios(tiny_scenarios(), store=store)
        counter = _FitCounter(monkeypatch)
        warm_comparison = warm.compare_estimators()
        assert counter.calls == 0
        assert warm_comparison.cells == cold_comparison.cells
        # A bootstrap comparison is a different analysis config: recomputed.
        warm.compare_estimators(estimators=["gumbel-pwm"], bootstrap=10)
        assert counter.calls > 0

    def test_warm_default_store_seeds_battery_for_other_estimators(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path / "store")
        cold = execute_scenarios(tiny_scenarios(), store=store)
        cold.mbpta("rm")  # persist the default-estimator analyses
        import repro.study.resultset as resultset_module

        batteries = []
        original = resultset_module.apply_mbpta_batch

        def counting(rows, config=None, assessments=None, **kwargs):
            batteries.append(assessments is None)
            return original(rows, config=config, assessments=assessments, **kwargs)

        monkeypatch.setattr(resultset_module, "apply_mbpta_batch", counting)
        warm = execute_scenarios(tiny_scenarios(), store=store)
        warm.compare_estimators(estimators=["gumbel-pwm", "gumbel-mle"])
        # gumbel-pwm resolves from the store; its persisted assessments are
        # reused, so the gumbel-mle pass never re-runs the battery.
        assert batteries == [False]

    def test_compare_estimators_rejects_empty_sets(self):
        results = execute_scenarios(tiny_scenarios(runs=10))
        with pytest.raises(ValueError, match="MBPTA minimum"):
            results.compare_estimators()

    @pytest.mark.slow
    def test_second_table2_run_fits_nothing(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        study = get_study("table2")
        study.run(self.SETTINGS, store=store)
        counter = _FitCounter(monkeypatch)
        warm = study.run(self.SETTINGS, store=store)
        assert warm.report.full_cache_hit
        assert counter.calls == 0
