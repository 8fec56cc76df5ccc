"""Tests for the shared argument-validation helpers."""

import numpy as np
import pytest

from repro._util import check_positive
from repro._util.validation import check_count


class TestCheckPositive:
    @pytest.mark.parametrize("strict", [True, False])
    def test_nan_rejected(self, strict):
        with pytest.raises(ValueError):
            check_positive("x", np.nan, strict=strict)

    def test_zero_allowed_only_when_not_strict(self):
        assert check_positive("x", 0.0, strict=False) == 0.0
        with pytest.raises(ValueError, match="> 0"):
            check_positive("x", 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            check_positive("x", -1e-12, strict=False)


class TestCheckCount:
    @pytest.mark.parametrize("value", [2, np.int64(2), np.uint8(2)])
    def test_integers_accepted(self, value):
        assert check_count("k", value, 1) == 2

    @pytest.mark.parametrize("value", [2.0, np.float64(2.0), np.nan, True, np.True_, "2"])
    def test_non_integers_rejected(self, value):
        with pytest.raises(TypeError, match="k must be an integer"):
            check_count("k", value, 1)

    def test_below_minimum_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 10, got 9"):
            check_count("k", 9, 10)
