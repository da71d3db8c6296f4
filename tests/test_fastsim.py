"""Compiled traces and run results, and the default campaign engine
cross-validated against the reference model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.campaign import run_campaign
from repro.cache.cache import CacheConfig
from repro.cache.fastsim import CompiledTrace, FastRunResult
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig, MemoryTimings
from repro.cache.trace import AccessKind, Trace
from repro.engine import DEFAULT_ENGINE, get_engine
from repro.platform.leon3 import platform_setup
from repro.workloads.eembc import eembc_trace


def tiny_config(l1_placement="rm", l1_replacement="random", with_l2=True):
    il1 = CacheConfig(
        name="IL1", size_bytes=512, ways=2, line_size=32,
        placement=l1_placement, replacement=l1_replacement,
    )
    dl1 = CacheConfig(
        name="DL1", size_bytes=512, ways=2, line_size=32,
        placement=l1_placement, replacement=l1_replacement,
    )
    l2 = (
        CacheConfig(
            name="L2", size_bytes=2048, ways=4, line_size=32,
            placement="hrp", replacement="random",
        )
        if with_l2
        else None
    )
    return HierarchyConfig(il1=il1, dl1=dl1, l2=l2, timings=MemoryTimings())


def default_simulator(config, trace, engine=DEFAULT_ENGINE):
    compiled = CompiledTrace(trace, line_size=config.il1.line_size)
    return get_engine(engine).simulator(config, compiled)


def reference_simulator(config, trace):
    return default_simulator(config, trace, engine="reference")


def hierarchy_replay(config, trace, seed):
    """Drive the reference hierarchy with the trace's raw byte addresses."""
    hierarchy = CacheHierarchy(config, seed=seed)
    replay = {
        AccessKind.FETCH: hierarchy.fetch,
        AccessKind.LOAD: hierarchy.load,
        AccessKind.STORE: hierarchy.store,
    }
    for kind, address in zip(trace.kinds.tolist(), trace.addresses.tolist()):
        replay[kind](address)
    il1, dl1, l2 = (hierarchy.stats()[level] for level in ("il1", "dl1", "l2"))
    return FastRunResult(
        cycles=hierarchy.cycles,
        memory_accesses=hierarchy.memory_accesses,
        il1_accesses=il1["accesses"],
        il1_misses=il1["misses"],
        dl1_accesses=dl1["accesses"],
        dl1_misses=dl1["misses"],
        l2_accesses=l2["accesses"],
        l2_misses=l2["misses"],
    )


def random_trace(draw_addresses, kinds):
    trace = Trace(name="hypothesis")
    for kind, address in zip(kinds, draw_addresses):
        trace.append(kind, address)
    return trace


class TestCompiledTrace:
    def test_unique_lines_and_ids(self):
        trace = Trace()
        trace.fetch(0x1000)
        trace.fetch(0x1004)   # same line
        trace.load(0x2000)
        compiled = CompiledTrace(trace, line_size=32)
        assert len(compiled) == 3
        assert len(compiled.unique_lines) == 2
        assert compiled.line_ids[0] == compiled.line_ids[1]
        assert compiled.footprint_bytes == 64

    @pytest.mark.parametrize("line_size", [0, -32, 48])
    def test_line_size_must_be_a_positive_power_of_two(self, line_size):
        # 48 B lines would give unique_lines [0, 16, 80, 64] and ids
        # [0, 1, 0, 1, 2, 3] here; 0 would make one line of every address.
        trace = Trace()
        for address in (0, 16, 40, 48, 80, 96):
            trace.load(address)
        with pytest.raises(ValueError, match=f"line_size must be a positive power of two, got {line_size}"):
            CompiledTrace(trace, line_size=line_size)

    def test_kind_constants_match_access_kind(self):
        from repro.cache.fastsim import FETCH_KIND, LOAD_KIND, STORE_KIND

        assert FETCH_KIND == int(AccessKind.FETCH)
        assert LOAD_KIND == int(AccessKind.LOAD)
        assert STORE_KIND == int(AccessKind.STORE)


class TestAgainstReference:
    """The default engine must match the reference model bit-exactly."""

    @pytest.mark.parametrize("placement", ["modulo", "hrp", "rm"])
    @pytest.mark.parametrize("replacement", ["random", "lru"])
    def test_policies_match_on_kernel_trace(self, placement, replacement, small_kernel_trace):
        config = tiny_config(l1_placement=placement, l1_replacement=replacement)
        default = default_simulator(config, small_kernel_trace)
        reference = reference_simulator(config, small_kernel_trace)
        for seed in (0, 1, 12345):
            assert default.run(seed) == reference.run(seed)

    def test_no_l2_matches(self, small_kernel_trace):
        config = tiny_config(with_l2=False)
        default = default_simulator(config, small_kernel_trace)
        assert default.run(7) == reference_simulator(config, small_kernel_trace).run(7)

    def test_leon3_config_matches_on_eembc(self):
        trace = eembc_trace("rspeed")
        config = platform_setup("rm")
        assert default_simulator(config, trace).run(11) == reference_simulator(
            config, trace
        ).run(11)

    @given(
        seed=st.integers(0, 2**32 - 1),
        placement=st.sampled_from(["modulo", "hrp", "rm"]),
        accesses=st.lists(
            st.tuples(
                st.sampled_from([0, 1, 2]),
                st.integers(0, 63),
                st.integers(0, 31),
            ),
            min_size=10,
            max_size=200,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_traces_match_property(self, seed, placement, accesses):
        # Both engines replay line-aligned addresses; the hierarchy driven
        # with the raw byte addresses is the ground truth they reproduce.
        trace = Trace(name="hypothesis")
        for kind, line, offset in accesses:
            trace.append(kind, 0x40000000 + line * 32 + offset)
        config = tiny_config(l1_placement=placement)
        expected = hierarchy_replay(config, trace, seed)
        assert default_simulator(config, trace).run(seed) == expected
        assert reference_simulator(config, trace).run(seed) == expected

    def test_raw_address_loop_replays_to_hierarchy_cycles(self):
        # A strided load loop: setup code, 64 iterations of a four-instruction
        # body whose first instruction loads the next 32-byte line, then halt.
        code, data = 0x40000000, 0x40100000
        trace = Trace(name="strided-loop")
        trace.fetch(code)
        trace.fetch(code + 4)
        for iteration in range(64):
            trace.fetch(code + 8)
            trace.load(data + iteration * 32)
            for offset in (12, 16, 20):
                trace.fetch(code + offset)
        trace.fetch(code + 24)
        config = platform_setup("rm")
        expected = hierarchy_replay(config, trace, 77)
        assert default_simulator(config, trace).run(77) == expected
        assert reference_simulator(config, trace).run(77) == expected


class TestFastEngineBehaviour:
    """Run-level behaviour of the default engine's simulator."""

    def test_same_seed_is_deterministic(self, small_kernel_trace):
        simulator = default_simulator(tiny_config(), small_kernel_trace)
        assert simulator.run(42) == simulator.run(42)

    def test_different_seeds_change_results_for_random_placement(self, small_kernel_trace):
        simulator = default_simulator(tiny_config(), small_kernel_trace)
        cycles = {simulator.run(seed).cycles for seed in range(25)}
        assert len(cycles) > 1

    def test_modulo_placement_is_seed_invariant(self, small_kernel_trace):
        config = tiny_config(l1_placement="modulo", l1_replacement="lru")
        # Make the L2 deterministic as well.
        config = HierarchyConfig(
            il1=config.il1,
            dl1=config.dl1,
            l2=CacheConfig(
                name="L2", size_bytes=2048, ways=4, line_size=32,
                placement="modulo", replacement="lru",
            ),
            timings=config.timings,
        )
        simulator = default_simulator(config, small_kernel_trace)
        assert len({simulator.run(seed).cycles for seed in range(10)}) == 1

    def test_miss_rates_are_rates(self, small_kernel_trace):
        result = default_simulator(tiny_config(), small_kernel_trace).run(5)
        assert result.cycles > 0
        assert result.il1_accesses + result.dl1_accesses == len(small_kernel_trace)
        assert 0.0 <= result.il1_miss_rate <= 1.0
        assert 0.0 <= result.dl1_miss_rate <= 1.0
        assert 0.0 <= result.l2_miss_rate <= 1.0


class TestBatchApi:
    """run_batch must agree with per-seed run() calls on a fresh simulator."""

    @pytest.mark.parametrize("placement", ["modulo", "hrp", "rm"])
    def test_batch_matches_individual_runs(self, placement, small_kernel_trace):
        config = tiny_config(l1_placement=placement)
        seeds = [0, 1, 7, 12345]
        batch = default_simulator(config, small_kernel_trace).run_batch(seeds)
        individual = [
            default_simulator(config, small_kernel_trace).run(seed) for seed in seeds
        ]
        assert batch == individual

    def test_batch_matches_reference_engine(self, small_kernel_trace):
        config = tiny_config(l1_placement="modulo", l1_replacement="lru")
        seeds = [3, 5, 8]
        batch = default_simulator(config, small_kernel_trace).run_batch(seeds)
        reference = reference_simulator(config, small_kernel_trace)
        assert batch == [reference.run(seed) for seed in seeds]

    def test_core_run_batch_rejects_unknown_engine(self, small_kernel_trace):
        with pytest.raises(ValueError, match="unknown engine"):
            run_campaign(small_kernel_trace, tiny_config(), runs=1, engine="warp")
