"""Unit tests for the shared validation helpers."""

from __future__ import annotations

import pytest

from repro._validation import (
    check_dims,
    check_nonnegative_int,
    check_positive_float,
    check_positive_int,
    check_probability,
    check_subset_size,
    require,
)


class TestRequire:
    def test_passes(self):
        require(True, "never")

    def test_raises(self):
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")


class TestIntChecks:
    def test_positive_ok(self):
        assert check_positive_int(3, "x") == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "x")

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            check_positive_int(3.0, "x")

    def test_nonnegative_allows_zero(self):
        assert check_nonnegative_int(0, "x") == 0
        with pytest.raises(ValueError):
            check_nonnegative_int(-1, "x")


class TestDims:
    def test_tuple_returned(self):
        assert check_dims([4, 3, 2]) == (4, 3, 2)

    def test_string_rejected(self):
        with pytest.raises(TypeError):
            check_dims("432")

    def test_min_len(self):
        with pytest.raises(ValueError):
            check_dims([], min_len=1)
        assert check_dims([2], min_len=1) == (2,)

    def test_member_validation(self):
        with pytest.raises(ValueError):
            check_dims([4, 0])
        with pytest.raises(TypeError):
            check_dims([4, "2"])


class TestFloatChecks:
    def test_positive_ok(self):
        assert check_positive_float(2.5, "x") == 2.5
        assert check_positive_float(3, "x") == 3.0

    def test_rejects_zero_nan_inf(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                check_positive_float(bad, "x")

    def test_rejects_bool_and_str(self):
        with pytest.raises(TypeError):
            check_positive_float(True, "x")
        with pytest.raises(TypeError):
            check_positive_float("fast", "x")

    def test_probability_range(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ValueError):
            check_probability(1.01, "p")


class TestSubsetSize:
    def test_ok(self):
        assert check_subset_size(3, 10) == 3

    def test_exceeds(self):
        with pytest.raises(ValueError):
            check_subset_size(11, 10)
