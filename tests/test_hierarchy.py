"""Tests for the two-level cache hierarchy."""

import pytest

from repro.cache.cache import CacheConfig
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig, MemoryTimings
from repro.platform.leon3 import leon3_hierarchy


def small_hierarchy(l2=True, l1_placement="modulo", l1_replacement="lru"):
    il1 = CacheConfig(
        name="IL1", size_bytes=512, ways=2, line_size=32,
        placement=l1_placement, replacement=l1_replacement,
    )
    dl1 = CacheConfig(
        name="DL1", size_bytes=512, ways=2, line_size=32,
        placement=l1_placement, replacement=l1_replacement,
    )
    l2_config = (
        CacheConfig(
            name="L2", size_bytes=2048, ways=4, line_size=32,
            placement="modulo", replacement="lru",
        )
        if l2
        else None
    )
    return CacheHierarchy(
        HierarchyConfig(il1=il1, dl1=dl1, l2=l2_config, timings=MemoryTimings()),
        seed=0,
    )


class TestTimings:
    def test_default_latencies(self):
        timings = MemoryTimings()
        assert timings.l1_hit == 1
        assert timings.l2_hit > timings.l1_hit
        assert timings.memory > timings.l2_hit

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            MemoryTimings(l1_hit=-1)


class TestLatencies:
    def test_cold_fetch_pays_full_path(self):
        hierarchy = small_hierarchy()
        timings = hierarchy.config.timings
        latency = hierarchy.fetch(0x1000)
        assert latency == timings.l1_hit + timings.l2_hit + timings.memory

    def test_warm_fetch_is_l1_hit(self):
        hierarchy = small_hierarchy()
        hierarchy.fetch(0x1000)
        assert hierarchy.fetch(0x1000) == hierarchy.config.timings.l1_hit

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = small_hierarchy()
        timings = hierarchy.config.timings
        way_span = 8 * 32  # IL1 way size
        hierarchy.fetch(0x0)
        hierarchy.fetch(way_span)
        hierarchy.fetch(2 * way_span)  # evicts 0x0 from IL1, still in L2
        assert hierarchy.fetch(0x0) == timings.l1_hit + timings.l2_hit

    def test_no_l2_hierarchy_goes_to_memory(self):
        hierarchy = small_hierarchy(l2=False)
        timings = hierarchy.config.timings
        assert hierarchy.load(0x40) == timings.l1_hit + timings.memory
        assert hierarchy.memory_accesses == 1

    def test_cycles_accumulate(self):
        hierarchy = small_hierarchy()
        total = sum(hierarchy.fetch(0x1000) for _ in range(3))
        assert hierarchy.cycles == total


class TestDataPath:
    def test_store_hit_costs_l1_latency(self):
        hierarchy = small_hierarchy()
        hierarchy.load(0x2000)
        assert hierarchy.store(0x2000) == hierarchy.config.timings.l1_hit

    def test_write_through_store_updates_l2_stats(self):
        hierarchy = small_hierarchy()
        hierarchy.load(0x2000)
        l2_accesses_before = hierarchy.l2.stats.accesses
        hierarchy.store(0x2000)
        assert hierarchy.l2.stats.accesses == l2_accesses_before + 1

    def test_dirty_l2_victim_costs_a_writeback(self):
        # The store miss write-allocates line 0 dirty in L2 set 0; four
        # loads of lines 512 B apart (16 L2 sets) fill the set and the
        # last one evicts line 0 (LRU), paying its writeback to memory.
        hierarchy = small_hierarchy()
        timings = hierarchy.config.timings
        hierarchy.store(0x0)
        for address in (0x200, 0x400, 0x600):
            hierarchy.load(address)
        before = hierarchy.memory_accesses
        latency = hierarchy.load(0x800)
        assert latency == (
            timings.l1_hit + timings.l2_hit + timings.writeback + timings.memory
        )
        assert hierarchy.memory_accesses == before + 2
        assert hierarchy.l2.stats.writebacks == 1

    def test_store_miss_does_not_allocate_in_l1(self):
        hierarchy = small_hierarchy()
        hierarchy.store(0x3000)
        assert hierarchy.dl1.stats.misses == 1
        assert hierarchy.dl1.occupancy() == 0.0

    def test_instruction_and_data_paths_are_separate(self):
        hierarchy = small_hierarchy()
        hierarchy.fetch(0x1000)
        hierarchy.load(0x1000)
        assert hierarchy.il1.stats.accesses == 1
        assert hierarchy.dl1.stats.accesses == 1


class TestStatsAndReseed:
    def test_stats_structure(self):
        hierarchy = small_hierarchy()
        hierarchy.fetch(0x0)
        hierarchy.load(0x40)
        stats = hierarchy.stats()
        assert set(stats) == {"il1", "dl1", "l2", "totals"}
        assert stats["totals"]["cycles"] == hierarchy.cycles

    def test_reset_stats(self):
        hierarchy = small_hierarchy()
        hierarchy.fetch(0x0)
        hierarchy.reset_stats()
        assert hierarchy.cycles == 0
        assert hierarchy.il1.stats.accesses == 0

    def test_reseed_flushes_all_levels(self):
        hierarchy = small_hierarchy(l1_placement="rm", l1_replacement="random")
        hierarchy.fetch(0x0)
        hierarchy.load(0x40)
        hierarchy.reseed(99)
        assert hierarchy.il1.occupancy() == 0.0
        assert hierarchy.dl1.occupancy() == 0.0
        assert hierarchy.l2.occupancy() == 0.0

    def test_same_seed_reproduces_exact_behaviour(self):
        results = []
        for _ in range(2):
            hierarchy = small_hierarchy(l1_placement="rm", l1_replacement="random")
            hierarchy.reseed(1234)
            total = 0
            for address in range(0, 4096, 32):
                total += hierarchy.fetch(address)
                total += hierarchy.load(address + 0x10000)
            results.append(total)
        assert results[0] == results[1]


class TestLeon3Factory:
    def test_default_geometry_matches_paper(self):
        config = leon3_hierarchy()
        assert config.il1.size_bytes == 16 * 1024
        assert config.il1.ways == 4
        assert config.il1.num_sets == 128
        assert config.l2.size_bytes == 128 * 1024
        assert config.l2.num_sets == 1024

    def test_rm_setup_places_rm_in_l1_and_hrp_in_l2(self):
        config = leon3_hierarchy(l1_placement="rm", l2_placement="hrp")
        assert config.il1.placement == "rm"
        assert config.dl1.placement == "rm"
        assert config.l2.placement == "hrp"

    def test_l1s_are_write_through_l2_write_back(self):
        # The write policy follows the level, not the configuration.
        hierarchy = CacheHierarchy(leon3_hierarchy())
        assert not hierarchy.il1.write_back
        assert not hierarchy.dl1.write_back
        assert hierarchy.l2.write_back
