"""Cross-engine equivalence: every registered engine must agree bit-exactly.

The production ``numpy`` engine is checked against the ``reference``
oracle: random traces and configurations are replayed through **all
registered engines** (so a future backend is automatically covered the
moment it registers) and every counter must match, run by run — including
through the campaign layer and the exec queue's worker processes.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.campaign import run_campaign, run_layout_campaign
from repro.cache.cache import CacheConfig
from repro.cache.fastsim import CompiledTrace
from repro.cache.hierarchy import HierarchyConfig, MemoryTimings
from repro.cache.trace import Trace
from repro.engine import DEFAULT_ENGINE, available_engines, get_engine
from repro.platform.leon3 import Leon3Parameters, leon3_hierarchy
from repro.study import HierarchySpec, ResultStore, Scenario, WorkloadSpec, execute_scenarios
from repro.workloads import eembc_kernel_names, eembc_trace, random_layouts


def build_config(
    l1_placement="rm",
    l1_replacement="random",
    l1_write="write-through",
    l2_placement="hrp",
    l2_replacement="random",
    l2_write="write-back",
    with_l2=True,
    ways=2,
):
    l1_size = ways * 32 * 8  # 8 sets at any associativity
    il1 = CacheConfig(
        name="IL1", size_bytes=l1_size, ways=ways, line_size=32,
        placement=l1_placement, replacement=l1_replacement, write_policy=l1_write,
    )
    dl1 = CacheConfig(
        name="DL1", size_bytes=l1_size, ways=ways, line_size=32,
        placement=l1_placement, replacement=l1_replacement, write_policy=l1_write,
    )
    l2 = (
        CacheConfig(
            name="L2", size_bytes=2048, ways=4, line_size=32,
            placement=l2_placement, replacement=l2_replacement,
            write_policy=l2_write,
        )
        if with_l2
        else None
    )
    return HierarchyConfig(il1=il1, dl1=dl1, l2=l2, timings=MemoryTimings())


#: Random traces: 10-200 (kind, line) accesses over 64 lines.
ACCESSES = st.lists(
    st.tuples(st.sampled_from([0, 1, 2]), st.integers(0, 63)),
    min_size=10,
    max_size=200,
)

#: Hierarchies over every placement, replacement and write policy, with and
#: without an L2.
CONFIGS = st.builds(
    build_config,
    l1_placement=st.sampled_from(["modulo", "xor", "hrp", "rm"]),
    l1_replacement=st.sampled_from(["random", "lru", "fifo", "plru"]),
    l1_write=st.sampled_from(["write-through", "write-back"]),
    l2_placement=st.sampled_from(["modulo", "xor", "hrp", "rm"]),
    l2_replacement=st.sampled_from(["random", "lru", "fifo", "plru"]),
    l2_write=st.sampled_from(["write-through", "write-back"]),
    with_l2=st.booleans(),
)


def trace_of(accesses):
    trace = Trace(name="hypothesis")
    for kind, line in accesses:
        trace.append(kind, 0x40000000 + line * 32)
    return trace


def run_all_engines(config, trace, seeds):
    """Map engine name -> list of per-seed result dicts, via the registry.

    Every registered engine models every configuration ``CacheConfig``
    accepts, so none may opt out: ``numpy`` and the ``reference`` oracle
    always give ``assert_all_equal`` a cross-check.
    """
    compiled = CompiledTrace(trace, line_size=config.il1.line_size)
    results = {
        name: [
            result.as_dict()
            for result in get_engine(name).simulator(config, compiled).run_batch(seeds)
        ]
        for name in available_engines()
    }
    assert {"numpy", "reference"} <= set(results)
    return results


def assert_all_equal(results):
    names = sorted(results)
    assert len(names) >= 2, f"need a cross-check, got only {names}"
    baseline_name = names[0]
    baseline = results[baseline_name]
    for name in names[1:]:
        assert results[name] == baseline, f"{name} disagrees with {baseline_name}"


class TestAllRegisteredEnginesAgree:
    @given(seed=st.integers(0, 2**64 - 1), accesses=ACCESSES, config=CONFIGS)
    @settings(max_examples=30, deadline=None)
    def test_random_traces_and_configs_property(self, seed, accesses, config):
        """Identical cycles and miss counters across every registered engine."""
        assert_all_equal(run_all_engines(config, trace_of(accesses), [seed, seed ^ 0xDEAD]))

    def test_l2_lru_and_deterministic_l2_placement(self, small_kernel_trace):
        """Directed coverage of the L2 LRU-stamp and static-map paths."""
        for l2_placement in ("modulo", "rm"):
            config = build_config(
                l1_write="write-back",
                l2_placement=l2_placement,
                l2_replacement="lru",
            )
            assert_all_equal(run_all_engines(config, small_kernel_trace, list(range(5))))

    def test_three_way_cache_exercises_rejection_sampling(self, small_kernel_trace):
        """Non-power-of-two associativity hits the PRNG rejection-sampling path."""
        config = build_config(l1_placement="hrp", ways=3)
        assert_all_equal(run_all_engines(config, small_kernel_trace, list(range(8))))

    def test_lru_write_through_store_demotion(self, small_kernel_trace):
        """WT store hits under LRU touch stamps without establishing
        residence guarantees — the exact interaction the plan compiler's
        guard-drop rule exists for (see repro.engine.plan)."""
        for l1_placement, ways, with_l2 in (
            ("modulo", 3, False),
            ("xor", 2, True),
            ("rm", 2, True),
        ):
            config = build_config(
                l1_placement=l1_placement,
                l1_replacement="lru",
                l1_write="write-through",
                with_l2=with_l2,
                ways=ways,
            )
            assert_all_equal(
                run_all_engines(config, small_kernel_trace, list(range(6)))
            )

    @pytest.mark.parametrize("replacement", ["fifo", "plru"])
    @pytest.mark.parametrize("l1_write", ["write-through", "write-back"])
    @pytest.mark.parametrize("with_l2", [False, True])
    def test_fifo_and_plru_compiled_plans(
        self, small_kernel_trace, replacement, l1_write, with_l2
    ):
        """Directed FIFO/PLRU coverage: the numpy plan executor must agree
        with the reference model across both write policies, with and
        without an L2."""
        config = build_config(
            l1_replacement=replacement,
            l1_write=l1_write,
            l2_replacement=replacement,
            with_l2=with_l2,
        )
        assert_all_equal(run_all_engines(config, small_kernel_trace, list(range(6))))

    @pytest.mark.parametrize("l2_replacement", ["random", "lru", "fifo", "plru"])
    def test_write_through_l2_compiled_plans(
        self, small_kernel_trace, l2_replacement
    ):
        """A write-through L2 (stores propagate to memory, no dirty lines)
        through the compiled plan path, against the reference model."""
        config = build_config(
            l1_write="write-back",
            l2_replacement=l2_replacement,
            l2_write="write-through",
        )
        assert_all_equal(run_all_engines(config, small_kernel_trace, list(range(6))))

    def test_trace_core_routes_all_engines(self, small_kernel_trace, tiny_hierarchy_config):
        seeds = [0, 9, 2**63 + 5]
        assert_all_equal(run_all_engines(tiny_hierarchy_config, small_kernel_trace, seeds))

    def test_empty_trace_runs(self, tiny_hierarchy_config):
        results = run_all_engines(tiny_hierarchy_config, Trace(name="empty"), [0])
        assert_all_equal(results)
        (result,) = results["reference"]
        assert set(result.values()) == {0}  # 0 cycles, no accesses, no misses


class TestPlanPathEdgeCases:
    """Degenerate shapes where the plan compiler's derived structure could
    go wrong: the numpy plan executor must still agree with the oracle."""

    def _single_set_config(self, ways, placement, replacement, write):
        l1_size = ways * 32  # exactly one set
        cache = dict(
            size_bytes=l1_size, ways=ways, line_size=32,
            placement=placement, replacement=replacement, write_policy=write,
        )
        return HierarchyConfig(
            il1=CacheConfig(name="IL1", **cache),
            dl1=CacheConfig(name="DL1", **cache),
            l2=None,
            timings=MemoryTimings(),
        )

    @pytest.mark.parametrize("replacement", ["random", "lru"])
    # rm cannot express num_sets == 1 (the permutation network needs at
    # least one index bit), so hrp is the randomized-placement lens here.
    @pytest.mark.parametrize("placement", ["modulo", "hrp"])
    def test_single_set_caches(self, small_kernel_trace, placement, replacement):
        """num_sets == 1: every line conflicts with every other line."""
        config = self._single_set_config(4, placement, replacement, "write-through")
        assert_all_equal(run_all_engines(config, small_kernel_trace, [0, 1, 7]))

    @pytest.mark.parametrize("write", ["write-through", "write-back"])
    def test_direct_mapped_caches(self, small_kernel_trace, write):
        """ways == 1: the victim is forced, but draws must still be consumed
        in the reference model's order for randomized replacement."""
        for placement in ("modulo", "hrp"):
            config = build_config(
                l1_placement=placement, l1_write=write, ways=1, with_l2=True
            )
            assert_all_equal(run_all_engines(config, small_kernel_trace, [3, 11]))

    def test_traces_shorter_than_one_run(self):
        """0/1/2-access traces: no same-line run ever forms."""
        for accesses in ([], [(0, 0)], [(2, 5), (2, 5)], [(1, 3), (2, 3)]):
            trace = Trace(name="tiny")
            for kind, line in accesses:
                trace.append(kind, 0x40000000 + line * 32)
            for write in ("write-through", "write-back"):
                config = build_config(l1_write=write)
                assert_all_equal(run_all_engines(config, trace, [0, 5]))

    def test_empty_seed_batch(self, small_kernel_trace):
        config = build_config()
        for results in run_all_engines(config, small_kernel_trace, []).values():
            assert results == []


#: The layout-lane property's pinned example: 40 layouts of ``matrix`` on a
#: 512 B direct-mapped L1 give 10 distinct cycle counts, so the property
#: cannot pass vacuously (on the default geometry every layout gives one).
PINNED_LAYOUT_CASE = dict(
    kernel="matrix", scale=0.1, placement="modulo", replacement="lru",
    line_size=32, l1_size=512, l1_ways=1, with_l2=True, count=40,
    layout_seed=6, granularity=64,
)


def layout_case(
    kernel, scale, placement, replacement, line_size, l1_size, l1_ways,
    with_l2, count, layout_seed, granularity,
):
    """The hierarchy and layouts of one layout-lane case."""
    parameters = Leon3Parameters(
        l1_size_bytes=l1_size, l1_ways=l1_ways, l2_size_bytes=4096,
        line_size=line_size,
    )
    config = leon3_hierarchy(
        l1_placement=placement, l2_placement=placement,
        l1_replacement=replacement, l2_replacement=replacement,
        parameters=parameters, with_l2=with_l2,
    )
    return config, random_layouts(count, master_seed=layout_seed, granularity=granularity)


class TestLayoutLanes:
    """A layout campaign runs its layouts as the lanes of one engine batch;
    each lane must equal rebuilding that layout's trace and running it with
    hierarchy seed 0, on every engine, on small geometries where layouts
    change the conflict pattern."""

    @given(
        kernel=st.sampled_from(eembc_kernel_names()),
        scale=st.sampled_from([0.05, 0.1, 0.25]),
        placement=st.sampled_from(["modulo", "xor", "rm", "hrp"]),
        replacement=st.sampled_from(["lru", "fifo", "plru", "random"]),
        line_size=st.sampled_from([16, 32, 64, 128]),
        l1_size=st.sampled_from([512, 1024, 2048]),
        l1_ways=st.sampled_from([1, 2]),
        with_l2=st.booleans(),
        count=st.integers(1, 6),
        layout_seed=st.integers(0, 2**32 - 1),
        granularity=st.sampled_from([4, 32, 64]),
    )
    @example(**PINNED_LAYOUT_CASE)
    @example(**dict(PINNED_LAYOUT_CASE, placement="rm", line_size=128, l1_ways=2))
    @settings(max_examples=25, deadline=None)
    def test_lanes_equal_per_layout_rebuilds_property(
        self, kernel, scale, placement, replacement, line_size, l1_size,
        l1_ways, with_l2, count, layout_seed, granularity,
    ):
        case = (
            kernel, scale, placement, replacement, line_size, l1_size,
            l1_ways, with_l2, count, layout_seed, granularity,
        )
        if placement == "rm" and l1_size // (l1_ways * line_size) < 4:
            # RM routes the set index through a permutation network, which
            # needs at least two index bits (four sets): rejected up front.
            with pytest.raises(ValueError, match="rm placement needs at least 4 sets"):
                layout_case(*case)
            return
        config, layouts = layout_case(*case)
        default = get_engine(DEFAULT_ENGINE)
        rebuilt = [
            default.simulator(
                config,
                CompiledTrace(eembc_trace(kernel, layout=layout, scale=scale), line_size),
            )
            .run(0)
            .cycles
            for layout in layouts
        ]
        trace = eembc_trace(kernel, scale=scale)
        for name in available_engines():
            lanes = run_layout_campaign(trace, config, runs=0, layouts=layouts, engine=name)
            assert lanes.execution_times == rebuilt, name

    def test_pinned_case_varies_across_layouts(self):
        config, layouts = layout_case(**PINNED_LAYOUT_CASE)
        trace = eembc_trace("matrix", scale=0.1)
        cycles = run_layout_campaign(trace, config, runs=0, layouts=layouts)
        assert len(set(cycles.execution_times)) >= 2


class TestLaneTables:
    """Seed lanes and table lanes run one plan: handing every lane the
    compiled line table must change nothing, under distinct seeds."""

    @given(
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=5, unique=True),
        accesses=ACCESSES,
        config=CONFIGS,
    )
    @settings(max_examples=30, deadline=None)
    def test_table_lanes_equal_seed_lanes_property(self, seeds, accesses, config):
        compiled = CompiledTrace(trace_of(accesses), line_size=config.il1.line_size)
        # The repeated first seed puts two lanes under one placement seed.
        seeds = seeds + seeds[:1]
        tables = [list(compiled.unique_lines)] * len(seeds)
        for name in available_engines():
            simulator = get_engine(name).simulator(config, compiled)
            assert simulator.run_batch(seeds, lines=tables) == simulator.run_batch(seeds), name


class TestCampaignLevelEquivalence:
    def test_serial_campaigns_identical_across_engines(
        self, small_kernel_trace, tiny_hierarchy_config
    ):
        campaigns = {
            name: run_campaign(
                small_kernel_trace,
                tiny_hierarchy_config,
                runs=12,
                master_seed=77,
                engine=name,
            ).execution_times
            for name in available_engines()
        }
        assert_all_equal(campaigns)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_numpy_engine_bit_exact_under_process_pool(self, jobs, tmp_path):
        """engine='numpy' composes with jobs>1: queue shards per worker process."""
        scenario = Scenario(
            workload=WorkloadSpec.eembc("rspeed", scale=0.1),
            hierarchy=HierarchySpec.named("hrp"),
            runs=13,
            master_seed=3,
            engine="numpy",
            jobs=jobs,
        )
        serial_reference = run_campaign(
            scenario.workload.build_trace(),
            scenario.hierarchy.config(),
            runs=13,
            master_seed=3,
            engine="reference",
        )
        results = execute_scenarios([scenario], store=ResultStore(tmp_path / "store"))
        assert results.report.shards_executed > 1
        parallel_numpy = next(iter(results)).campaign
        assert parallel_numpy.execution_times == serial_reference.execution_times

    def test_numpy_batch_chunking_is_invisible(
        self, small_kernel_trace, tiny_hierarchy_config, monkeypatch
    ):
        """Internal lane chunking must not change results."""
        from repro.engine import numpy_engine

        compiled = CompiledTrace(
            small_kernel_trace, line_size=tiny_hierarchy_config.il1.line_size
        )
        seeds = list(range(17))
        engine = numpy_engine.NumpyEngine()
        whole = engine.simulator(tiny_hierarchy_config, compiled).run_batch(seeds)
        monkeypatch.setattr(numpy_engine, "DEFAULT_MAX_LANES", 4)
        chunked = engine.simulator(tiny_hierarchy_config, compiled).run_batch(seeds)
        assert whole == chunked
