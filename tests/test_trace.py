"""Tests for the memory-access trace container."""

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

    def test_addresses_are_masked_to_32_bits(self):
        trace = Trace()
        trace.load(0x1_0000_0040)
        assert trace.addresses[0] == 0x40


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

    def test_split_by_kind(self):
        trace = Trace()
        trace.fetch(0x0)
        trace.load(0x1000)
        trace.store(0x1020)
        code, data = trace.split_by_kind(32)
        assert code == [0x0]
        assert data == [0x1000, 0x1020]