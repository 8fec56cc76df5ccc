"""Tests for error metrics and report formatting."""

import numpy as np
import pytest

from repro.analysis import ape_summary, format_table, median_ape


class TestErrorStats:
    def test_median_ape(self):
        assert median_ape([1.1, 1.2, 0.9], [1.0, 1.0, 1.0]) == pytest.approx(0.1)

    def test_summary_keys(self):
        s = ape_summary([1.0, 2.0], [1.0, 1.0])
        assert set(s) == {"median", "p95", "mean", "n"}
        assert s["n"] == 2


class TestFormatting:
    def test_table_alignment(self):
        out = format_table(["name", "value"], [["a", 1.23456], ["bb", 2.0]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "1.235" in out  # default precision 3

    def test_table_title(self):
        out = format_table(["x"], [[1]], title="Table 1")
        assert out.splitlines()[0] == "Table 1"

    def test_table_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_nan_renders_as_na_placeholder(self):
        # Regression: NaN cells used to render as "nan" through the
        # float path — indistinguishable from a label and inconsistent
        # with precision-formatted cells; they are now a missing-value
        # marker.
        out = format_table(["x", "y"], [[1.0, float("nan")]])
        cells = out.splitlines()[-1].split("|")
        assert cells[1].strip() == "na"
        assert "nan" not in out

    def test_na_placeholder_customizable(self):
        out = format_table(["x"], [[float("nan")]], na="-")
        assert out.splitlines()[-1].strip() == "-"

    def test_infinities_render_bare_and_signed(self):
        out = format_table(
            ["a", "b"], [[float("inf"), float("-inf")]], precision=5
        )
        last = [c.strip() for c in out.splitlines()[-1].split("|")]
        assert last == ["inf", "-inf"]

    def test_numpy_nan_cell(self):
        out = format_table(["x"], [[np.float64("nan")]])
        assert out.splitlines()[-1].strip() == "na"
