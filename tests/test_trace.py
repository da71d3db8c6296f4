"""Tests for the memory-access trace container."""

import numpy as np
import pytest

from repro.cache.trace import Trace


class TestConstruction:
    def test_append_and_len(self):
        trace = Trace()
        trace.fetch(0x1000)
        trace.load(0x2000)
        trace.store(0x3000)
        assert len(trace) == 3
        assert trace.counts() == {"fetches": 1, "loads": 1, "stores": 1}

    def test_mismatched_lists_rejected(self):
        with pytest.raises(ValueError):
            Trace(kinds=[0, 1], addresses=[0])

    @pytest.mark.parametrize(
        "kinds, code",
        [([1, 7, 7], "7"), ([3], "3"), (np.array([-1, 0]), "-1"), ([300], "300"), ([1.5], "1.5")],
    )
    def test_unknown_kind_codes_are_rejected(self, kinds, code):
        # The engines read an unknown code differently (the plan compiler
        # as a load, the reference hierarchy as a store), so none gets in.
        addresses = [0x100, 0x100, 0x2000][: len(kinds)]
        with pytest.raises(ValueError, match=f"unknown access kind code {code};"):
            Trace(kinds=kinds, addresses=addresses)

    @pytest.mark.parametrize("code", [9, 3, -1])
    def test_append_rejects_unknown_kind_codes(self, code):
        trace = Trace()
        with pytest.raises(ValueError, match=f"unknown access kind code {code};"):
            trace.append(code, 0x40)
        assert len(trace) == 0

    def test_addresses_are_masked_to_32_bits(self):
        trace = Trace()
        trace.load(0x1_0000_0040)
        assert trace.addresses[0] == 0x40

    def test_arrays_wrap_addresses_and_grow(self):
        trace = Trace(kinds=[0, 1, 2], addresses=[0x1_0000_0004, 8, 12], name="t")
        assert trace.kinds.dtype == np.uint8 and trace.addresses.dtype == np.int64
        assert trace.addresses.tolist() == [4, 8, 12]
        for address in range(40):  # grows past its first capacity
            trace.store(address)
        assert len(trace) == 43 and trace.counts()["stores"] == 41
        assert trace.addresses[-1] == 39


class TestFootprints:
    def test_unique_lines(self):
        trace = Trace()
        trace.load(0x0)
        trace.load(0x10)   # same line
        trace.load(0x20)
        assert trace.unique_lines(32) == [0x0, 0x20]
        assert trace.footprint_bytes(32) == 64

    def test_unique_lines_rejects_bad_line_size(self):
        with pytest.raises(ValueError):
            Trace().unique_lines(0)

    @pytest.mark.parametrize("line_size", [0, -32, 48])
    def test_line_size_must_be_a_positive_power_of_two(self, line_size):
        trace = Trace()
        trace.load(0x40)
        with pytest.raises(ValueError, match=f"got {line_size}"):
            trace.unique_lines(line_size)
        with pytest.raises(ValueError, match=f"got {line_size}"):
            trace.footprint_bytes(line_size)

