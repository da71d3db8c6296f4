"""Tests for measurement campaigns and the HWM industrial baseline."""

import pytest

from repro.analysis.campaign import CampaignResult, run_campaign, run_layout_campaign
from repro.analysis.hwm import HwmBound, high_water_mark, industrial_bound
from repro.cache.fastsim import CompiledTrace
from repro.cpu.trace import Trace
from repro.engine import DEFAULT_ENGINE, get_engine, numpy_engine
from repro.platform.leon3 import Leon3Parameters, platform_setup
from repro.workloads.base import MemoryLayout, random_layouts, relocate_trace
from repro.workloads.eembc import eembc_trace


def _count_engine_work(monkeypatch):
    """Count ``compile_plan`` and simulator ``run_batch`` calls of numpy."""
    counts = {"compile_plan": 0, "run_batch": 0}
    compile_plan = numpy_engine.compile_plan
    run_batch = numpy_engine._VectorSimulator.run_batch

    def counted_compile(*args, **kwargs):
        counts["compile_plan"] += 1
        return compile_plan(*args, **kwargs)

    def counted_run(self, *args, **kwargs):
        counts["run_batch"] += 1
        return run_batch(self, *args, **kwargs)

    monkeypatch.setattr(numpy_engine, "compile_plan", counted_compile)
    monkeypatch.setattr(numpy_engine._VectorSimulator, "run_batch", counted_run)
    return counts


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

    def test_result_carries_its_miss_summary(self, small_kernel_trace, tiny_hierarchy_config):
        campaign = run_campaign(small_kernel_trace, tiny_hierarchy_config, runs=5, master_seed=1)
        summary = campaign.miss_summary
        assert list(summary) == [
            "il1_misses", "dl1_misses", "l2_misses", "memory_accesses",
            "il1_miss_rate", "dl1_miss_rate", "l2_miss_rate",
        ]
        assert summary["il1_misses"] > 0
        assert summary["l2_miss_rate"] == summary["l2_misses"] / summary["memory_accesses"]

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
            eembc_trace("rspeed", scale=0.25),
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
            eembc_trace("rspeed", scale=0.25),
            config,
            runs=2,
            layouts=layouts,
        )
        assert campaign.runs == 2

    def test_reproducible(self):
        config = platform_setup("modulo")
        trace = eembc_trace("rspeed", scale=0.25)
        a = run_layout_campaign(trace, config, runs=6, master_seed=7)
        b = run_layout_campaign(trace, config, runs=6, master_seed=7)
        assert a.execution_times == b.execution_times

    def test_one_plan_and_one_batch_per_alignment_class(self, monkeypatch):
        counts = _count_engine_work(monkeypatch)
        trace = eembc_trace("rspeed", scale=0.1)
        run_layout_campaign(trace, platform_setup("modulo"), runs=40, master_seed=3)
        assert counts == {"compile_plan": 1, "run_batch": 1}
        # 128 B lines split random_layouts' 64 B shifts into at most four
        # (code, data) alignment classes.
        counts.update(compile_plan=0, run_batch=0)
        config = platform_setup("modulo", parameters=Leon3Parameters(line_size=128))
        run_layout_campaign(trace, config, runs=40, master_seed=3)
        assert 1 < counts["compile_plan"] == counts["run_batch"] <= 4

    def test_coinciding_code_and_data_lines_rejected(self):
        # A rebuilt trace would merge the two lines; a relocated table cannot.
        base = MemoryLayout()
        clash = base.shifted(data_shift=base.code_base - base.data_base)
        with pytest.raises(ValueError, match="coincide"):
            run_layout_campaign(
                eembc_trace("rspeed", scale=0.1),
                platform_setup("modulo"),
                runs=2,
                layouts=[base, clash],
            )

    def test_line_shared_by_code_and_data_moves_as_one(self):
        # One line holds both a fetch and a load: equal shifts keep it one
        # line (and match the relocated trace), unequal ones would split it.
        trace = Trace([0, 1, 0, 2], [0x4000_0000, 0x4000_0010, 0x4000_0040, 0x4000_0014])
        config = platform_setup("modulo")
        together = MemoryLayout().shifted(0x40, 0x40)
        campaign = run_layout_campaign(trace, config, runs=1, layouts=[together])
        compiled = CompiledTrace(relocate_trace(trace, 0x40, 0x40), config.il1.line_size)
        rebuilt = get_engine(DEFAULT_ENGINE).simulator(config, compiled).run(0)
        assert campaign.execution_times == [rebuilt.cycles]
        with pytest.raises(ValueError, match="splits"):
            run_layout_campaign(
                trace, config, runs=1, layouts=[MemoryLayout().shifted(0x40, 0)]
            )


class TestEmptyCampaignValidation:
    """CampaignResult rejects empty campaigns instead of failing later."""

    def test_empty_execution_times_rejected(self):
        with pytest.raises(ValueError, match="no execution times"):
            CampaignResult(workload="w", setup="s", execution_times=[])

    def test_properties_work_on_single_run(self):
        campaign = CampaignResult(workload="w", setup="s", execution_times=[42])
        assert campaign.high_water_mark == 42
        assert campaign.minimum == 42
        assert campaign.mean == 42.0

    def test_layout_campaign_rejects_zero_runs(self):
        trace = eembc_trace("rspeed", scale=0.1)
        with pytest.raises(ValueError, match="runs"):
            run_layout_campaign(trace, platform_setup("modulo"), runs=0)


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
