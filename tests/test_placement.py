"""Tests for the placement policies (the paper's core contribution)."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import (
    PLACEMENT_NAMES,
    HashRandomPlacement,
    ModuloPlacement,
    PlacementGeometry,
    RandomModuloPlacement,
    make_placement,
)

LEON3_L1 = PlacementGeometry(num_sets=128, line_size=32)


class TestGeometry:
    def test_leon3_l1_geometry(self):
        assert LEON3_L1.offset_bits == 5
        assert LEON3_L1.index_bits == 7
        assert LEON3_L1.upper_bits == 20
        assert LEON3_L1.segment_size == 4096

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            PlacementGeometry(num_sets=12, line_size=32)

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ValueError):
            PlacementGeometry(num_sets=16, line_size=48)

    def test_rejects_too_narrow_addresses(self):
        with pytest.raises(ValueError):
            PlacementGeometry(num_sets=1 << 20, line_size=4096, address_bits=16)

    def test_modulo_index_and_segment(self):
        geometry = PlacementGeometry(num_sets=8, line_size=32)
        assert geometry.modulo_index(0) == 0
        assert geometry.modulo_index(32) == 1
        assert geometry.modulo_index(8 * 32) == 0


class TestFactory:
    def test_all_names_constructible(self):
        for name in PLACEMENT_NAMES:
            policy = make_placement(name, LEON3_L1, seed=1)
            assert policy.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_placement("random-banana", LEON3_L1)

    @pytest.mark.parametrize("name", ["xor", "Hrp", "MODULO"])
    def test_name_outside_the_model_rejected(self, name):
        # The deleted XOR placement and case variants alike: no alias, and
        # the message lists the accepted names.
        with pytest.raises(ValueError, match=re.escape(f"expected one of {PLACEMENT_NAMES}")):
            make_placement(name, LEON3_L1)

    def test_case_variant_rejected(self):
        # Names match exactly, so one policy has one spelling (and one spec
        # hash); "RM" is not "rm".
        with pytest.raises(ValueError, match="unknown placement policy 'RM'"):
            make_placement("RM", LEON3_L1)


class TestModulo:
    def test_consecutive_lines_consecutive_sets(self):
        policy = ModuloPlacement(LEON3_L1)
        indices = [policy.set_index(line * 32) for line in range(128)]
        assert indices == list(range(128))

    def test_reseed_is_noop(self):
        policy = ModuloPlacement(LEON3_L1)
        before = [policy.set_index(a) for a in range(0, 8192, 32)]
        policy.reseed(123456)
        assert [policy.set_index(a) for a in range(0, 8192, 32)] == before

    def test_tag_excludes_index(self):
        policy = ModuloPlacement(LEON3_L1)
        assert not policy.needs_index_in_tag
        assert policy.tag(0x40000000) == 0x40000000 >> 12


class TestHashRandomPlacement:
    def test_same_seed_same_mapping(self):
        a = HashRandomPlacement(LEON3_L1, seed=5)
        b = HashRandomPlacement(LEON3_L1, seed=5)
        addresses = range(0x40000000, 0x40008000, 32)
        assert [a.set_index(x) for x in addresses] == [b.set_index(x) for x in addresses]

    def test_different_seeds_give_different_mapping(self):
        a = HashRandomPlacement(LEON3_L1, seed=5)
        b = HashRandomPlacement(LEON3_L1, seed=6)
        addresses = list(range(0x40000000, 0x40008000, 32))
        assert [a.set_index(x) for x in addresses] != [b.set_index(x) for x in addresses]

    def test_needs_index_in_tag(self):
        policy = HashRandomPlacement(LEON3_L1, seed=1)
        assert policy.needs_index_in_tag
        assert policy.tag(0x40000020) == (0x40000020 >> 5)

    def test_indices_in_range(self):
        policy = HashRandomPlacement(LEON3_L1, seed=11)
        assert all(
            0 <= policy.set_index(a) < 128 for a in range(0, 1 << 16, 1024 + 32)
        )

    def test_roughly_uniform_over_sets(self):
        policy = HashRandomPlacement(LEON3_L1, seed=3)
        counts = [0] * 128
        addresses = range(0x40000000, 0x40000000 + 128 * 32 * 64, 32)
        for address in addresses:
            counts[policy.set_index(address)] += 1
        # 8192 lines over 128 sets: expect 64 per set; allow a wide band.
        assert max(counts) < 64 * 2
        assert min(counts) > 64 // 3

    def test_same_offset_same_line_same_set(self):
        policy = HashRandomPlacement(LEON3_L1, seed=7)
        assert policy.set_index(0x40000000) == policy.set_index(0x4000001F)

    def test_neighbouring_lines_can_collide_across_seeds(self):
        # Section 3.1: with hRP even contiguous lines have probability ~1/S
        # of sharing a set; across many seeds some collision must show up.
        collisions = 0
        for seed in range(400):
            policy = HashRandomPlacement(LEON3_L1, seed=seed)
            if policy.set_index(0x40000000) == policy.set_index(0x40000020):
                collisions += 1
        assert collisions > 0

    @given(seed=st.integers(0, 2**32 - 1), line=st.integers(0, 2**20))
    @settings(max_examples=50)
    def test_index_range_property(self, seed, line):
        policy = HashRandomPlacement(LEON3_L1, seed=seed)
        assert 0 <= policy.set_index(line * 32) < 128


class TestRandomModulo:
    def test_same_seed_same_mapping(self):
        a = RandomModuloPlacement(LEON3_L1, seed=5)
        b = RandomModuloPlacement(LEON3_L1, seed=5)
        addresses = range(0x40000000, 0x40008000, 32)
        assert [a.set_index(x) for x in addresses] == [b.set_index(x) for x in addresses]

    def test_reseed_changes_mapping(self):
        policy = RandomModuloPlacement(LEON3_L1, seed=5)
        addresses = list(range(0x40000000, 0x40010000, 32))
        before = [policy.set_index(x) for x in addresses]
        policy.reseed(6)
        assert [policy.set_index(x) for x in addresses] != before

    def test_no_index_in_tag(self):
        assert not RandomModuloPlacement(LEON3_L1, seed=1).needs_index_in_tag

    def test_segment_is_mapped_bijectively(self):
        # The key theorem of Section 3.2: addresses of one cache segment that
        # differ under modulo can never collide under RM, for any seed.
        for seed in (0, 1, 17, 0xDEADBEEF):
            policy = RandomModuloPlacement(LEON3_L1, seed=seed)
            segment_base = 0x40003000 & ~(LEON3_L1.segment_size - 1)
            indices = [
                policy.set_index(segment_base + line * 32) for line in range(128)
            ]
            assert sorted(indices) == list(range(128)), f"seed {seed} broke the bijection"

    @given(
        seed=st.integers(0, 2**64 - 1),
        segment=st.integers(0, 2**15),
        line_a=st.integers(0, 127),
        line_b=st.integers(0, 127),
    )
    @settings(max_examples=120)
    def test_segment_conflict_freedom_property(self, seed, segment, line_a, line_b):
        policy = RandomModuloPlacement(LEON3_L1, seed=seed)
        base = segment * LEON3_L1.segment_size
        address_a = base + line_a * 32
        address_b = base + line_b * 32
        if line_a != line_b:
            assert policy.set_index(address_a) != policy.set_index(address_b)
        else:
            assert policy.set_index(address_a) == policy.set_index(address_b)

    @given(seed=st.integers(0, 2**64 - 1), address=st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_index_in_range_property(self, seed, address):
        policy = RandomModuloPlacement(LEON3_L1, seed=seed)
        assert 0 <= policy.set_index(address) < 128

    def test_different_segments_get_different_permutations(self):
        policy = RandomModuloPlacement(LEON3_L1, seed=42)
        mappings = set()
        for segment in range(32):
            base = segment * LEON3_L1.segment_size
            mappings.add(tuple(policy.set_index(base + line * 32) for line in range(8)))
        # Not all segments may differ, but they must not all be identical.
        assert len(mappings) > 1

    def test_power_of_two_index_uses_benes(self):
        # 256 sets -> 8 index bits -> the 8-wide Benes network with the 20
        # control bits quoted in Section 3.2 of the paper.
        geometry = PlacementGeometry(num_sets=256, line_size=32)
        policy = RandomModuloPlacement(geometry, seed=1)
        assert policy.network.num_switches == 20

    def test_network_width_mismatch_rejected(self):
        from repro.core.benes import BenesNetwork

        with pytest.raises(ValueError):
            RandomModuloPlacement(LEON3_L1, seed=1, network=BenesNetwork(8))

    def test_describe_contains_policy_name(self):
        description = RandomModuloPlacement(LEON3_L1, seed=1).describe()
        assert description["policy"] == "rm"
        assert description["num_sets"] == 128


class TestVectorizedMaps:
    """The vectorized hooks the numpy engine builds its per-seed maps with
    must equal the scalar mapping, address by address and seed by seed."""

    SEEDS = [0, 1, 0xDEADBEEF, 2**63, 2**64 - 1]

    @staticmethod
    def _addresses(geometry):
        # Lines spread over several segments (RM redraws its permutation per
        # segment), including the first and last line of the address space.
        rng = random.Random(geometry.num_sets * geometry.line_size)
        segments = 1 << (geometry.address_bits - geometry.offset_bits - geometry.index_bits)
        addresses = [0, (1 << geometry.address_bits) - geometry.line_size]
        for segment in (0, 1, 3, rng.randrange(segments), segments - 1):
            base = segment * geometry.segment_size
            addresses += [
                base + rng.randrange(geometry.num_sets) * geometry.line_size
                for _ in range(8)
            ]
        return np.array(addresses, dtype=np.uint64)

    @pytest.mark.parametrize("line_size", [16, 32])
    @pytest.mark.parametrize("num_sets", [4, 16, 128, 1024])
    @pytest.mark.parametrize("name", ["modulo", "hrp", "rm"])
    def test_matrix_columns_equal_the_scalar_mapping(self, name, num_sets, line_size):
        geometry = PlacementGeometry(num_sets=num_sets, line_size=line_size)
        policy = make_placement(name, geometry, seed=7)
        addresses = self._addresses(geometry)
        matrix = policy.set_index_matrix(addresses, self.SEEDS)
        assert matrix.shape == (len(addresses), len(self.SEEDS))
        for column, seed in enumerate(self.SEEDS):
            policy.reseed(seed)
            expected = [policy.set_index(int(address)) for address in addresses]
            assert matrix[:, column].tolist() == expected, seed
            assert policy.set_index_array(addresses).tolist() == expected, seed
