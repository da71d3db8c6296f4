"""Parallel campaigns must be bit-exact with the serial execution path."""

import pytest

from repro.analysis import parallel
from repro.analysis.campaign import CampaignResult, run_campaign, run_layout_campaign
from repro.analysis.parallel import (
    DEFAULT_CHUNK_SIZE,
    partition_chunks,
    resolve_jobs,
    run_campaign_parallel,
)
from repro.cache.fastsim import CompiledTrace
from repro.engine import NumpyEngine, available_engines, register_engine, unregister_engine
from repro.platform.leon3 import platform_setup
from repro.workloads.base import random_layouts
from repro.workloads.eembc import EembcLayoutTraceBuilder


class RenamedNumpyEngine(NumpyEngine):
    """Module-level (hence picklable) custom engine for registry tests."""

    name = "test-custom-numpy"


class TestResolveJobs:
    def test_explicit_value_taken_literally(self):
        assert resolve_jobs(3) == 3

    def test_none_and_zero_mean_all_cpus(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(-1)


class TestPartitionChunks:
    def test_chunks_cover_items_in_order(self):
        items = list(range(100))
        chunks = partition_chunks(items, jobs=4)
        flattened = []
        for start, chunk in chunks:
            assert start == len(flattened)
            flattened.extend(chunk)
        assert flattened == items

    def test_explicit_chunk_size(self):
        chunks = partition_chunks(list(range(10)), jobs=2, chunk_size=3)
        assert [len(chunk) for _, chunk in chunks] == [3, 3, 3, 1]

    def test_chunk_size_capped(self):
        chunks = partition_chunks(list(range(10_000)), jobs=2)
        assert max(len(chunk) for _, chunk in chunks) <= DEFAULT_CHUNK_SIZE

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            partition_chunks([1, 2, 3], jobs=2, chunk_size=0)


class TestParallelSeedCampaign:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_bit_exact_with_serial(self, jobs, small_kernel_trace, tiny_hierarchy_config):
        serial = run_campaign(
            small_kernel_trace, tiny_hierarchy_config, runs=16, master_seed=11
        )
        parallel = run_campaign(
            small_kernel_trace, tiny_hierarchy_config, runs=16, master_seed=11, jobs=jobs
        )
        assert parallel.execution_times == serial.execution_times
        assert parallel.workload == serial.workload
        assert parallel.setup == serial.setup
        assert parallel.master_seed == serial.master_seed

    def test_bit_exact_across_chunk_sizes(self, small_kernel_trace, tiny_hierarchy_config):
        serial = run_campaign(
            small_kernel_trace, tiny_hierarchy_config, runs=10, master_seed=2
        )
        for chunk_size in (1, 3, 10):
            parallel = run_campaign(
                small_kernel_trace,
                tiny_hierarchy_config,
                runs=10,
                master_seed=2,
                jobs=2,
                chunk_size=chunk_size,
            )
            assert parallel.execution_times == serial.execution_times

    def test_keep_run_results_matches_serial(self, small_kernel_trace, tiny_hierarchy_config):
        serial = run_campaign(
            small_kernel_trace,
            tiny_hierarchy_config,
            runs=6,
            master_seed=4,
            keep_run_results=True,
        )
        parallel = run_campaign(
            small_kernel_trace,
            tiny_hierarchy_config,
            runs=6,
            master_seed=4,
            keep_run_results=True,
            jobs=2,
        )
        assert [r.as_dict() for r in parallel.run_results] == [
            r.as_dict() for r in serial.run_results
        ]

    def test_more_jobs_than_runs(self, small_kernel_trace, tiny_hierarchy_config):
        serial = run_campaign(
            small_kernel_trace, tiny_hierarchy_config, runs=3, master_seed=8
        )
        parallel = run_campaign(
            small_kernel_trace, tiny_hierarchy_config, runs=3, master_seed=8, jobs=4
        )
        assert parallel.execution_times == serial.execution_times

    def test_workers_select_engine_by_registry_name(
        self, small_kernel_trace, tiny_hierarchy_config
    ):
        """Any registered engine composes with the process pool, bit-exactly."""
        serial = run_campaign(
            small_kernel_trace, tiny_hierarchy_config, runs=6, master_seed=5
        )
        for engine in available_engines():
            parallel = run_campaign_parallel(
                small_kernel_trace,
                tiny_hierarchy_config,
                runs=6,
                master_seed=5,
                engine=engine,
                jobs=2,
            )
            assert parallel.execution_times == serial.execution_times, engine

    def test_unknown_engine_rejected_in_parent(
        self, small_kernel_trace, tiny_hierarchy_config
    ):
        with pytest.raises(ValueError, match="unknown engine"):
            run_campaign_parallel(
                small_kernel_trace,
                tiny_hierarchy_config,
                runs=4,
                engine="warp",
                jobs=2,
            )

    def test_user_registered_engine_composes_with_pool(
        self, small_kernel_trace, tiny_hierarchy_config
    ):
        """Engines registered at runtime work through jobs>1 too."""
        serial = run_campaign(
            small_kernel_trace, tiny_hierarchy_config, runs=6, master_seed=21
        )
        register_engine(RenamedNumpyEngine())
        try:
            parallel_custom = run_campaign_parallel(
                small_kernel_trace,
                tiny_hierarchy_config,
                runs=6,
                master_seed=21,
                engine="test-custom-numpy",
                jobs=2,
            )
        finally:
            unregister_engine("test-custom-numpy")
        assert parallel_custom.execution_times == serial.execution_times

    def test_worker_initializer_needs_no_registry(
        self, small_kernel_trace, tiny_hierarchy_config
    ):
        """Workers receive the resolved engine object, not a name to re-look-up.

        Spawn-based start methods re-import repro.engine in the child, which
        only re-registers the built-ins; shipping the resolved object keeps
        user-registered engines working there.  Simulate that child state by
        initialising the worker with an engine that is *not* registered.
        """
        compiled = CompiledTrace(
            small_kernel_trace, line_size=tiny_hierarchy_config.il1.line_size
        )
        parallel._init_seed_worker(
            tiny_hierarchy_config, compiled, RenamedNumpyEngine()
        )
        try:
            start, results = parallel._run_seed_chunk((0, [3, 4]))
        finally:
            parallel._worker_simulator = None
        assert start == 0
        assert [r.cycles for r in results] == [
            NumpyEngine().simulator(tiny_hierarchy_config, compiled).run(seed).cycles
            for seed in (3, 4)
        ]


class TestParallelLayoutCampaign:
    """The deterministic-layout path must also be bit-exact in parallel."""

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_bit_exact_with_serial(self, jobs):
        builder = EembcLayoutTraceBuilder("rspeed", scale=0.1)
        config = platform_setup("modulo")
        serial = run_layout_campaign(builder, config, runs=8, master_seed=6)
        parallel = run_layout_campaign(
            builder, config, runs=8, master_seed=6, jobs=jobs
        )
        assert parallel.execution_times == serial.execution_times
        assert parallel.workload == serial.workload

    def test_explicit_layouts(self):
        builder = EembcLayoutTraceBuilder("rspeed", scale=0.1)
        config = platform_setup("modulo")
        layouts = random_layouts(5, master_seed=9)
        serial = run_layout_campaign(builder, config, runs=0, layouts=layouts)
        parallel = run_layout_campaign(
            builder, config, runs=0, layouts=layouts, jobs=2
        )
        assert parallel.execution_times == serial.execution_times


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
        builder = EembcLayoutTraceBuilder("rspeed", scale=0.1)
        with pytest.raises(ValueError, match="runs"):
            run_layout_campaign(builder, platform_setup("modulo"), runs=0)
