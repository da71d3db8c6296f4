"""Unit and property tests for repro.core.bits."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bits import (
    ceil_log2,
    fold_xor,
    from_bits,
    is_power_of_two,
    mask,
    parity,
    rotate_left,
    rotate_right,
    to_bits,
)


class TestMask:
    def test_zero_width(self):
        assert mask(0) == 0

    def test_small_widths(self):
        assert mask(1) == 1
        assert mask(4) == 0xF
        assert mask(8) == 0xFF

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)


class TestPowerOfTwo:
    def test_powers(self):
        for exponent in range(12):
            assert is_power_of_two(1 << exponent)

    def test_non_powers(self):
        for value in (0, 3, 5, 6, 7, 9, 12, 100, -4):
            assert not is_power_of_two(value)


class TestCeilLog2:
    def test_exact_powers(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(2) == 1
        assert ceil_log2(128) == 7

    def test_non_powers_round_up(self):
        assert ceil_log2(3) == 2
        assert ceil_log2(129) == 8

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ceil_log2(0)


class TestRotate:
    def test_rotate_left_basic(self):
        assert rotate_left(0b0001, 1, 4) == 0b0010
        assert rotate_left(0b1000, 1, 4) == 0b0001

    def test_rotate_right_basic(self):
        assert rotate_right(0b0001, 1, 4) == 0b1000

    def test_rotate_by_width_is_identity(self):
        assert rotate_left(0b1011, 4, 4) == 0b1011

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            rotate_left(1, 1, 0)

    @given(value=st.integers(0, 2**16 - 1), amount=st.integers(0, 40))
    def test_left_then_right_roundtrip(self, value, amount):
        assert rotate_right(rotate_left(value, amount, 16), amount, 16) == value

    @given(value=st.integers(0, 2**12 - 1), amount=st.integers(0, 30))
    def test_rotation_preserves_popcount(self, value, amount):
        assert bin(rotate_left(value, amount, 12)).count("1") == bin(value).count("1")


class TestFoldXor:
    def test_identity_when_narrower(self):
        assert fold_xor(0b101, 3, 8) == 0b101

    def test_folds_chunks(self):
        # 0xAB = 0xA (high nibble) xor 0xB (low nibble) when folded to 4 bits.
        assert fold_xor(0xAB, 8, 4) == 0xA ^ 0xB

    def test_rejects_bad_out_width(self):
        with pytest.raises(ValueError):
            fold_xor(1, 8, 0)

    @given(value=st.integers(0, 2**24 - 1))
    def test_result_fits_out_width(self, value):
        assert 0 <= fold_xor(value, 24, 7) < 128

    @given(a=st.integers(0, 2**20 - 1), b=st.integers(0, 2**20 - 1))
    def test_fold_is_linear_over_xor(self, a, b):
        assert fold_xor(a ^ b, 20, 6) == fold_xor(a, 20, 6) ^ fold_xor(b, 20, 6)


class TestBitVectors:
    def test_to_bits_lsb_first(self):
        assert to_bits(0b1101, 4) == [1, 0, 1, 1]

    def test_from_bits_roundtrip(self):
        assert from_bits(to_bits(0xC3, 8)) == 0xC3

    def test_from_bits_rejects_non_bits(self):
        with pytest.raises(ValueError):
            from_bits([0, 2, 1])

    @given(value=st.integers(0, 2**10 - 1))
    def test_roundtrip_property(self, value):
        assert from_bits(to_bits(value, 10)) == value


class TestBitSliceAndParity:
    def test_parity(self):
        assert parity(0) == 0
        assert parity(0b111) == 1
        assert parity(0b1111) == 0

    def test_parity_rejects_negative(self):
        with pytest.raises(ValueError):
            parity(-1)
