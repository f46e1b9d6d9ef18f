"""Tests for repro.utils.validation."""

import pytest

from repro.utils.validation import (
    check_fraction,
    check_in_range,
    check_non_negative,
    check_positive,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("x", 0.1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive("x", -1)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        check_non_negative("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="x"):
            check_non_negative("x", -0.001)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="x must be >= 0, got nan"):
            check_non_negative("x", float("nan"))


class TestCheckFraction:
    def test_accepts_bounds(self):
        check_fraction("x", 0.0)
        check_fraction("x", 1.0)

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            check_fraction("x", 1.01)
        with pytest.raises(ValueError):
            check_fraction("x", -0.01)


class TestCheckInRange:
    def test_accepts_inside(self):
        check_in_range("x", 5, 1, 10)

    def test_rejects_outside(self):
        with pytest.raises(ValueError, match="x"):
            check_in_range("x", 11, 1, 10)


class TestCustomExceptionClass:
    """Every helper raises the caller's domain error via ``exc``."""

    def test_check_positive_custom_exc(self):
        from repro.errors import ProbingError

        with pytest.raises(ProbingError, match="x must be > 0, got 0"):
            check_positive("x", 0, exc=ProbingError)

    def test_check_non_negative_custom_exc(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="x must be >= 0, got -1"):
            check_non_negative("x", -1, exc=SimulationError)

    def test_check_fraction_custom_exc(self):
        from repro.errors import ProbingError

        with pytest.raises(
            ProbingError, match=r"x must be in \[0, 1\], got 2"
        ):
            check_fraction("x", 2, exc=ProbingError)

    def test_check_in_range_custom_exc(self):
        from repro.errors import SimulationError

        with pytest.raises(
            SimulationError, match=r"x must be in \[1, 10\], got 0"
        ):
            check_in_range("x", 0, 1, 10, exc=SimulationError)

    def test_default_stays_value_error(self):
        with pytest.raises(ValueError):
            check_positive("x", -5)
