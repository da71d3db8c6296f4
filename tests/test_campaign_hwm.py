"""Tests for measurement campaigns and the HWM industrial baseline."""

import pytest

from repro.analysis.campaign import run_campaign, run_layout_campaign
from repro.analysis.hwm import HwmBound, high_water_mark, industrial_bound
from repro.cpu.core import ExecutionTimingModel
from repro.platform.leon3 import platform_setup
from repro.workloads.base import MemoryLayout, random_layouts
from repro.workloads.eembc import eembc_trace


class TestRunCampaign:
    def test_collects_requested_runs(self, small_kernel_trace, tiny_hierarchy_config):
        campaign = run_campaign(
            small_kernel_trace, tiny_hierarchy_config, runs=25, master_seed=1
        )
        assert campaign.runs == 25
        assert campaign.minimum <= campaign.mean <= campaign.high_water_mark

    def test_reproducible_for_same_master_seed(self, small_kernel_trace, tiny_hierarchy_config):
        a = run_campaign(small_kernel_trace, tiny_hierarchy_config, runs=15, master_seed=3)
        b = run_campaign(small_kernel_trace, tiny_hierarchy_config, runs=15, master_seed=3)
        assert a.execution_times == b.execution_times

    def test_different_master_seeds_differ(self, small_kernel_trace, tiny_hierarchy_config):
        a = run_campaign(small_kernel_trace, tiny_hierarchy_config, runs=25, master_seed=3)
        b = run_campaign(small_kernel_trace, tiny_hierarchy_config, runs=25, master_seed=4)
        assert a.execution_times != b.execution_times

    def test_engines_agree(self, small_kernel_trace, tiny_hierarchy_config):
        default = run_campaign(
            small_kernel_trace, tiny_hierarchy_config, runs=5, master_seed=9
        )
        reference = run_campaign(
            small_kernel_trace, tiny_hierarchy_config, runs=5, master_seed=9, engine="reference"
        )
        assert default.execution_times == reference.execution_times

    def test_keep_run_results_enables_miss_summary(self, small_kernel_trace, tiny_hierarchy_config):
        campaign = run_campaign(
            small_kernel_trace,
            tiny_hierarchy_config,
            runs=5,
            master_seed=1,
            keep_run_results=True,
        )
        summary = campaign.miss_summary()
        assert summary["il1_misses"] > 0
        assert campaign.miss_summary() != {}

    def test_without_run_results_miss_summary_is_empty(self, small_kernel_trace, tiny_hierarchy_config):
        campaign = run_campaign(small_kernel_trace, tiny_hierarchy_config, runs=3, master_seed=1)
        assert campaign.miss_summary() == {}

    def test_timing_overhead_raises_cycle_counts(self, small_kernel_trace, tiny_hierarchy_config):
        plain = run_campaign(small_kernel_trace, tiny_hierarchy_config, runs=3, master_seed=1)
        overhead = run_campaign(
            small_kernel_trace,
            tiny_hierarchy_config,
            runs=3,
            master_seed=1,
            timing=ExecutionTimingModel(fetch_overhead=1, data_overhead=1),
        )
        assert all(o > p for o, p in zip(overhead.execution_times, plain.execution_times))

    def test_rejects_zero_runs(self, small_kernel_trace, tiny_hierarchy_config):
        with pytest.raises(ValueError):
            run_campaign(small_kernel_trace, tiny_hierarchy_config, runs=0)

    def test_randomised_setup_shows_variability(self, small_kernel_trace, tiny_hierarchy_config):
        campaign = run_campaign(small_kernel_trace, tiny_hierarchy_config, runs=30, master_seed=2)
        assert len(set(campaign.execution_times)) > 1


class TestLayoutCampaign:
    def test_layout_variation_on_deterministic_platform(self):
        config = platform_setup("modulo")
        campaign = run_layout_campaign(
            lambda layout: eembc_trace("rspeed", layout=layout, scale=0.25),
            config,
            runs=8,
            master_seed=5,
        )
        assert campaign.runs == 8
        assert campaign.setup == "deterministic"

    def test_explicit_layouts(self):
        config = platform_setup("modulo")
        layouts = [MemoryLayout(), MemoryLayout().shifted(data_shift=0x40)]
        campaign = run_layout_campaign(
            lambda layout: eembc_trace("rspeed", layout=layout, scale=0.25),
            config,
            runs=2,
            layouts=layouts,
        )
        assert campaign.runs == 2

    def test_reproducible(self):
        config = platform_setup("modulo")
        build = lambda layout: eembc_trace("rspeed", layout=layout, scale=0.25)
        a = run_layout_campaign(build, config, runs=6, master_seed=7)
        b = run_layout_campaign(build, config, runs=6, master_seed=7)
        assert a.execution_times == b.execution_times


class TestHwm:
    def test_high_water_mark(self):
        assert high_water_mark([3.0, 9.0, 4.0]) == 9.0

    def test_high_water_mark_rejects_empty(self):
        with pytest.raises(ValueError):
            high_water_mark([])

    def test_industrial_bound_adds_margin(self):
        bound = industrial_bound([100.0, 110.0])
        assert bound.hwm == 110.0
        assert bound.bound == pytest.approx(132.0)

    def test_pwcet_ratio_and_margin_check(self):
        bound = HwmBound(hwm=100.0, margin=0.2)
        assert bound.pwcet_ratio(107.0) == pytest.approx(1.07)
        assert bound.within_margin(119.0)
        assert not bound.within_margin(121.0)

    def test_rejects_negative_margin(self):
        with pytest.raises(ValueError):
            industrial_bound([1.0], margin=-0.1)

    def test_ratio_rejects_non_positive_hwm(self):
        with pytest.raises(ValueError):
            HwmBound(hwm=0.0, margin=0.2).pwcet_ratio(1.0)
