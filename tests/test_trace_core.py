"""Tests for the trace-driven timing core."""

import pytest

from repro.cpu.core import ExecutionTimingModel, TraceDrivenCore
from repro.cpu.trace import Trace


class TestTraceDrivenCore:
    def test_default_and_reference_engines_agree(self, small_kernel_trace, tiny_hierarchy_config):
        core = TraceDrivenCore(tiny_hierarchy_config, small_kernel_trace)
        for seed in (0, 5, 99):
            assert core.run(seed).as_dict() == core.run(
                seed, engine="reference"
            ).as_dict()

    def test_unknown_engine_rejected(self, small_kernel_trace, tiny_hierarchy_config):
        core = TraceDrivenCore(tiny_hierarchy_config, small_kernel_trace)
        with pytest.raises(ValueError):
            core.run(0, engine="gpu")

    def test_overhead_model_adds_fixed_cycles(self, small_kernel_trace, tiny_hierarchy_config):
        plain = TraceDrivenCore(tiny_hierarchy_config, small_kernel_trace)
        with_overhead = TraceDrivenCore(
            tiny_hierarchy_config,
            small_kernel_trace,
            timing=ExecutionTimingModel(fetch_overhead=1, data_overhead=2),
        )
        counts = small_kernel_trace.counts()
        expected_extra = counts["fetches"] + 2 * (counts["loads"] + counts["stores"])
        assert (
            with_overhead.run(7).cycles - plain.run(7).cycles == expected_extra
        )

    def test_empty_trace_runs(self, tiny_hierarchy_config):
        core = TraceDrivenCore(tiny_hierarchy_config, Trace(name="empty"))
        result = core.run(0)
        assert result.cycles == 0
        assert result.accesses == 0

    def test_result_accessor_counts_match_trace(self, small_kernel_trace, tiny_hierarchy_config):
        core = TraceDrivenCore(tiny_hierarchy_config, small_kernel_trace)
        result = core.run(1)
        assert result.accesses == len(small_kernel_trace)
        assert result.il1_misses >= 0 and result.dl1_misses >= 0

    def test_compiled_trace_is_reused_across_runs(self, small_kernel_trace, tiny_hierarchy_config):
        core = TraceDrivenCore(tiny_hierarchy_config, small_kernel_trace)
        core.run(0)
        first_compiled = core._compiled
        core.run(1)
        assert core._compiled is first_compiled
