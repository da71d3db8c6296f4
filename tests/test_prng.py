"""Tests for the SplitMix64 seed and victim generator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.prng import SplitMix64, derive_run_seeds


class TestSplitMix64:
    def test_known_sequence_is_stable(self):
        rng = SplitMix64(0)
        first = rng.next_uint64()
        rng2 = SplitMix64(0)
        assert rng2.next_uint64() == first

    def test_values_fit_64_bits(self):
        rng = SplitMix64(42)
        for _ in range(100):
            assert 0 <= rng.next_uint64() < 2**64

    def test_next_below_uniform_coverage(self):
        rng = SplitMix64(5)
        seen = {rng.next_below(8) for _ in range(200)}
        assert seen == set(range(8))

    def test_next_below_rejects_non_positive(self):
        with pytest.raises(ValueError):
            SplitMix64(1).next_below(0)

    @given(seed=st.integers(0, 2**64 - 1))
    def test_deterministic_for_any_seed(self, seed):
        assert SplitMix64(seed).next_uint64() == SplitMix64(seed).next_uint64()


class TestDeriveRunSeeds:
    def test_count_and_determinism(self):
        seeds = derive_run_seeds(123, 50)
        assert len(seeds) == 50
        assert seeds == derive_run_seeds(123, 50)

    def test_all_distinct(self):
        seeds = derive_run_seeds(7, 1000)
        assert len(set(seeds)) == 1000

    def test_different_master_seeds_differ(self):
        assert derive_run_seeds(1, 10) != derive_run_seeds(2, 10)

    def test_zero_count(self):
        assert derive_run_seeds(1, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            derive_run_seeds(1, -1)
