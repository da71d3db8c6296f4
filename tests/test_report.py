"""Tests for the plain-text reporting helpers."""

import pytest

from repro.analysis.report import format_ccdf, format_histogram, format_table


class TestFormatTable:
    def test_alignment_and_content(self):
        table = format_table(["name", "value"], [("alpha", 1), ("b", 123456.0)])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert "alpha" in table
        assert "123,456" in table

    def test_title(self):
        assert format_table(["a"], [(1,)], title="My table").splitlines()[0] == "My table"

    def test_empty_rows(self):
        table = format_table(["a", "b"], [])
        assert "a" in table and "b" in table

    def test_float_formatting(self):
        table = format_table(["x"], [(0.1234567,)])
        assert "0.123" in table


class TestFormatHistogram:
    def test_basic_histogram(self):
        text = format_histogram([1, 1, 2, 2, 2, 10], bins=3, title="demo")
        assert text.startswith("demo")
        assert "#" in text

    def test_constant_sample(self):
        text = format_histogram([5.0] * 10)
        assert "equal" in text

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            format_histogram([])


class TestFormatCcdfAndRatio:
    def test_ccdf_table(self):
        text = format_ccdf([(1000.0, 0.5), (2000.0, 1e-6)], title="curve")
        assert "curve" in text
        assert "1e-06" in text or "1e-6" in text
