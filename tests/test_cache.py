"""Tests for the reference set-associative cache model."""

import pytest

from repro.cache.cache import CacheConfig, SetAssociativeCache


def make_cache(**overrides):
    config = CacheConfig(
        name="L1",
        size_bytes=overrides.pop("size_bytes", 1024),
        ways=overrides.pop("ways", 2),
        line_size=overrides.pop("line_size", 32),
        placement=overrides.pop("placement", "modulo"),
        replacement=overrides.pop("replacement", "lru"),
        write_policy=overrides.pop("write_policy", "write-through"),
    )
    return SetAssociativeCache(config, seed=overrides.pop("seed", 0))


class TestConfig:
    def test_num_sets(self):
        assert CacheConfig(size_bytes=16 * 1024, ways=4, line_size=32).num_sets == 128

    def test_way_size_is_segment_size(self):
        config = CacheConfig(size_bytes=16 * 1024, ways=4, line_size=32)
        assert config.way_size == 4096
        assert config.geometry.segment_size == 4096

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, ways=3, line_size=32)

    def test_rejects_bad_write_policy(self):
        with pytest.raises(ValueError):
            CacheConfig(write_policy="write-around")

    def test_rejects_zero_ways(self):
        with pytest.raises(ValueError):
            CacheConfig(ways=0)

    def test_rejects_unknown_placement(self):
        with pytest.raises(ValueError, match="placement must be one of"):
            CacheConfig(name="il1", placement="nope")

    @pytest.mark.parametrize(
        "placement, size_bytes, min_sets",
        # RM at one and two sets: a permutation network over fewer than two
        # index bits has no switch.  XOR at one set has no bit to fold into.
        [("rm", 64, 4), ("rm", 128, 4), ("xor", 64, 2)],
    )
    def test_rejects_too_few_sets_for_the_placement(self, placement, size_bytes, min_sets):
        with pytest.raises(ValueError, match=f"{placement} placement needs at least {min_sets} sets"):
            CacheConfig(
                name="il1", size_bytes=size_bytes, ways=2, line_size=32, placement=placement
            )


class TestBasicBehaviour:
    def test_first_access_misses_then_hits(self):
        cache = make_cache()
        assert not cache.access(0x1000).hit
        assert cache.access(0x1000).hit

    def test_same_line_different_offsets_hit(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.access(0x101F).hit
        assert not cache.access(0x1020).hit

    def test_stats_consistency(self):
        cache = make_cache()
        addresses = [0x0, 0x20, 0x40, 0x0, 0x20, 0x1000, 0x0]
        for address in addresses:
            cache.access(address)
        stats = cache.stats
        assert stats.accesses == len(addresses)
        assert stats.hits + stats.misses == stats.accesses
        assert stats.read_accesses == stats.accesses

    def test_lookup_does_not_modify_state(self):
        cache = make_cache()
        cache.access(0x40)
        hits_before = cache.stats.hits
        assert cache.lookup(0x40)
        assert not cache.lookup(0x80)
        assert cache.stats.hits == hits_before

    def test_flush_invalidates_everything(self):
        cache = make_cache()
        cache.access(0x40)
        cache.flush()
        assert not cache.access(0x40).hit
        assert cache.resident_lines() == [0x40]

    def test_occupancy(self):
        cache = make_cache()
        assert cache.occupancy() == 0.0
        cache.access(0x0)
        assert cache.occupancy() == pytest.approx(1 / 32)


class TestEvictionAndLru:
    def test_conflict_eviction_with_lru(self):
        cache = make_cache()  # 1 KB, 2 ways, 32 B lines -> 16 sets, 512 B way
        way_span = 16 * 32
        a, b, c = 0x0, way_span, 2 * way_span  # all map to set 0
        cache.access(a)
        cache.access(b)
        cache.access(a)          # a is MRU, b is LRU
        outcome = cache.access(c)
        assert not outcome.hit
        assert outcome.victim_address == b
        assert cache.access(a).hit
        assert not cache.access(b).hit

    def test_set_contents_reports_lines(self):
        cache = make_cache()
        cache.access(0x0)
        cache.access(0x20)
        assert cache.set_contents(0) == [0x0, None]
        assert cache.set_contents(1) == [0x20, None]


class TestWritePolicies:
    def test_write_through_store_miss_does_not_allocate(self):
        cache = make_cache(write_policy="write-through")
        outcome = cache.access(0x100, is_write=True)
        assert not outcome.hit and not outcome.allocated
        assert not cache.access(0x100).hit  # still a miss: nothing was installed

    def test_write_through_never_writes_back(self):
        cache = make_cache(write_policy="write-through")
        way_span = 16 * 32
        cache.access(0x0)
        cache.access(0x0, is_write=True)
        cache.access(way_span)
        outcome = cache.access(2 * way_span)
        assert outcome.writeback is False
        assert cache.stats.writebacks == 0

    def test_write_back_store_miss_allocates_dirty(self):
        cache = make_cache(write_policy="write-back")
        outcome = cache.access(0x100, is_write=True)
        assert not outcome.hit and outcome.allocated
        assert cache.access(0x100).hit

    def test_write_back_eviction_of_dirty_line_reports_writeback(self):
        cache = make_cache(write_policy="write-back")
        way_span = 16 * 32
        cache.access(0x0, is_write=True)
        cache.access(way_span)
        outcome = cache.access(2 * way_span)
        assert not outcome.hit
        assert outcome.writeback
        assert outcome.victim_address == 0x0
        assert cache.stats.writebacks == 1

    def test_clean_eviction_is_not_a_writeback(self):
        cache = make_cache(write_policy="write-back")
        way_span = 16 * 32
        cache.access(0x0)
        cache.access(way_span)
        outcome = cache.access(2 * way_span)
        assert outcome.writeback is False


class TestReseed:
    def test_reseed_flushes_contents(self):
        cache = make_cache(placement="rm", replacement="random", seed=1)
        cache.access(0x200)
        cache.reseed(2)
        assert not cache.access(0x200).hit

    def test_reseed_changes_random_mapping(self):
        cache = make_cache(placement="rm", replacement="random", seed=1)
        # Use an address whose modulo index has a mix of 0 and 1 bits: RM
        # permutes the index bits, so the all-zeros index is a fixed point.
        address = 0x4000_00C0
        seen = {cache.placement.set_index(address)}
        for seed in range(2, 40):
            cache.reseed(seed)
            seen.add(cache.placement.set_index(address))
        assert len(seen) > 1

    def test_stats_survive_reseed_until_reset(self):
        cache = make_cache(placement="rm", replacement="random", seed=1)
        cache.access(0x200)
        cache.reseed(3)
        assert cache.stats.accesses == 1
        cache.reset_stats()
        assert cache.stats.accesses == 0


class TestInvariants:
    def test_no_duplicate_lines_within_a_set(self):
        cache = make_cache(placement="rm", replacement="random", seed=7)
        addresses = [i * 32 for i in range(200)] * 3
        for address in addresses:
            cache.access(address)
        for set_index in range(cache.config.num_sets):
            contents = [line for line in cache.set_contents(set_index) if line is not None]
            assert len(contents) == len(set(contents))

    def test_fills_equal_misses_for_read_only_traffic(self):
        cache = make_cache()
        for address in [i * 32 for i in range(100)]:
            cache.access(address)
        assert cache.stats.fills == cache.stats.misses
