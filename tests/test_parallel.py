"""Campaigns run by worker processes must be bit-exact with serial ones.

``jobs != 1`` runs a call's lane-range shards on one process pool, whose
workers publish them to the store; the campaign read back must equal the
serial primitives' for seed and layout campaigns.
"""

from dataclasses import replace

import pytest

from repro.analysis.campaign import run_campaign, run_layout_campaign
from repro.engine import DEFAULT_ENGINE, available_engines
from repro.exec import resolve_jobs
from repro.platform.leon3 import Leon3Parameters
from repro.study import HierarchySpec, ResultStore, Scenario, WorkloadSpec, execute_scenarios
from repro.workloads.base import random_layouts


def _seed_scenario(runs: int, master_seed: int) -> Scenario:
    return Scenario(
        workload=WorkloadSpec.eembc("rspeed", scale=0.1),
        hierarchy=HierarchySpec.named("hrp"),
        runs=runs,
        master_seed=master_seed,
    )


def _layout_scenario(runs: int, master_seed: int) -> Scenario:
    # A direct-mapped 512 B L1, so that shifted layouts change the timing.
    caches = Leon3Parameters(l1_size_bytes=512, l1_ways=1, l2_size_bytes=4096)
    return replace(
        _seed_scenario(runs, master_seed),
        workload=WorkloadSpec.eembc("matrix", scale=0.1),
        hierarchy=HierarchySpec.named("modulo", caches),
        campaign="layouts",
    )


def _executed(scenario: Scenario, tmp_path, **options):
    """``scenario``'s campaign and report, executed on a fresh store with
    the call's ``options`` (``jobs``, ``engine``)."""
    results = execute_scenarios(
        [scenario], store=ResultStore(tmp_path / "store"), **options
    )
    return next(iter(results)).campaign, results.report


def _serial(scenario: Scenario, engine: str = DEFAULT_ENGINE):
    return run_campaign(
        scenario.workload.build_trace(),
        scenario.hierarchy.config(),
        runs=scenario.runs,
        master_seed=scenario.effective_seed,
        engine=engine,
    )


class TestResolveJobs:
    def test_explicit_value_taken_literally(self):
        assert resolve_jobs(3) == 3

    def test_none_and_zero_mean_all_cpus(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(-1)


class TestParallelSeedCampaign:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_bit_exact_with_serial(self, jobs, tmp_path):
        scenario = _seed_scenario(runs=16, master_seed=11)
        parallel, report = _executed(scenario, tmp_path, jobs=jobs)
        serial = _serial(scenario)
        assert report.shards_executed == report.shards_planned > 1
        assert parallel.execution_times == serial.execution_times
        assert parallel.workload == serial.workload
        assert parallel.master_seed == serial.master_seed

    def test_keep_run_results_matches_serial(self, tmp_path):
        # The ranges' per-run miss counters read back as the serial
        # campaign's miss summary, float for float.
        scenario = _seed_scenario(runs=6, master_seed=4)
        parallel, _ = _executed(scenario, tmp_path, jobs=2)
        assert parallel.miss_summary == _serial(scenario).miss_summary

    def test_more_jobs_than_runs(self, tmp_path):
        scenario = _seed_scenario(runs=3, master_seed=8)
        parallel, _ = _executed(scenario, tmp_path, jobs=4)
        assert parallel.execution_times == _serial(scenario).execution_times

    def test_workers_select_engine_by_registry_name(self, tmp_path):
        """Workers rebuild any registered engine from its name, bit-exactly."""
        scenario = _seed_scenario(runs=6, master_seed=5)
        serial = _serial(scenario)
        for engine in available_engines():
            parallel, _ = _executed(scenario, tmp_path / engine, jobs=2, engine=engine)
            assert parallel.execution_times == serial.execution_times, engine

    def test_unknown_engine_rejected_in_parent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenario = _seed_scenario(runs=4, master_seed=0)
        with pytest.raises(ValueError, match="unknown engine"):
            execute_scenarios([scenario], store=store, jobs=2, engine="warp")
        assert store.keys() == [] and store.shard_keys() == []


class TestParallelLayoutCampaign:
    """The deterministic-layout path must also be bit-exact in parallel."""

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_bit_exact_with_serial(self, jobs, tmp_path):
        scenario = _layout_scenario(runs=8, master_seed=6)
        parallel, report = _executed(scenario, tmp_path, jobs=jobs)
        serial = run_layout_campaign(
            scenario.workload.build_trace(),
            scenario.hierarchy.config(),
            runs=8,
            master_seed=6,
        )
        assert report.shards_executed == report.shards_planned > 1
        assert len(set(serial.execution_times)) > 1
        assert parallel.execution_times == serial.execution_times
        assert parallel.workload == serial.workload

    def test_explicit_layouts(self, tmp_path):
        # A layout campaign's lanes are random_layouts(runs, seed) in order.
        scenario = _layout_scenario(runs=5, master_seed=9)
        parallel, _ = _executed(scenario, tmp_path, jobs=2)
        serial = run_layout_campaign(
            scenario.workload.build_trace(),
            scenario.hierarchy.config(),
            runs=0,
            layouts=random_layouts(5, master_seed=9),
        )
        assert parallel.execution_times == serial.execution_times
