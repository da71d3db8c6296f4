"""Tests for the replacement policies."""

import re

import pytest

from repro.cache.replacement import (
    REPLACEMENT_NAMES,
    LruReplacement,
    RandomReplacement,
    make_replacement,
)


class TestFactory:
    def test_all_names_constructible(self):
        for name in REPLACEMENT_NAMES:
            policy = make_replacement(name, num_sets=4, num_ways=4, seed=1)
            assert policy.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_replacement("mru", 4, 4)

    @pytest.mark.parametrize("name", ["fifo", "plru", "LRU", "Random"])
    def test_name_outside_the_model_rejected(self, name):
        # FIFO and tree PLRU are not on the platform, and names match
        # exactly; the message lists the accepted names.
        with pytest.raises(ValueError, match=re.escape(f"expected one of {REPLACEMENT_NAMES}")):
            make_replacement(name, 4, 4)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            LruReplacement(0, 4)


class TestLru:
    def test_initial_victim_is_way_zero(self):
        policy = LruReplacement(2, 4)
        assert policy.victim(0) == 0

    def test_touch_moves_to_mru(self):
        policy = LruReplacement(1, 4)
        policy.touch(0, 0)
        assert policy.victim(0) == 1

    def test_full_access_sequence(self):
        policy = LruReplacement(1, 4)
        for way in (0, 1, 2, 3):
            policy.touch(0, way)
        policy.touch(0, 0)  # 0 becomes MRU again
        assert policy.victim(0) == 1

    def test_sets_are_independent(self):
        policy = LruReplacement(2, 2)
        policy.touch(0, 0)
        assert policy.victim(1) == 0

    def test_reset_restores_initial_order(self):
        policy = LruReplacement(1, 4)
        policy.touch(0, 0)
        policy.reset()
        assert policy.victim(0) == 0


class TestRandom:
    def test_victims_in_range(self):
        policy = RandomReplacement(4, 4, seed=9)
        assert all(0 <= policy.victim(0) < 4 for _ in range(200))

    def test_reproducible_per_seed(self):
        a = RandomReplacement(1, 4, seed=3)
        b = RandomReplacement(1, 4, seed=3)
        assert [a.victim(0) for _ in range(50)] == [b.victim(0) for _ in range(50)]

    def test_reseed_changes_sequence(self):
        policy = RandomReplacement(1, 4, seed=3)
        first = [policy.victim(0) for _ in range(50)]
        policy.reseed(4)
        assert [policy.victim(0) for _ in range(50)] != first

    def test_covers_all_ways(self):
        policy = RandomReplacement(1, 4, seed=1)
        assert {policy.victim(0) for _ in range(200)} == {0, 1, 2, 3}

    def test_touch_is_noop(self):
        policy = RandomReplacement(1, 2, seed=1)
        policy.touch(0, 1)  # must not raise
