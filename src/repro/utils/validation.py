"""Argument-validation helpers used at public API boundaries.

By default these raise built-in ``ValueError`` (not
:class:`repro.errors.ReproError`) because they signal caller bugs, not
library state; the error message always names the offending parameter.
Subsystems that must surface a domain error instead (e.g. fault-model
parameters rejected with :class:`repro.errors.ProbingError`) pass their
exception class via ``exc`` and reuse the same messages.
"""

from __future__ import annotations

from typing import Type, Union

Number = Union[int, float]


def check_positive(
    name: str, value: Number, exc: Type[Exception] = ValueError
) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise exc(f"{name} must be > 0, got {value}")


def check_non_negative(
    name: str, value: Number, exc: Type[Exception] = ValueError
) -> None:
    """Require ``value >= 0`` (NaN fails, as in :func:`check_positive`)."""
    if not value >= 0:
        raise exc(f"{name} must be >= 0, got {value}")


def check_fraction(
    name: str, value: Number, exc: Type[Exception] = ValueError
) -> None:
    """Require ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise exc(f"{name} must be in [0, 1], got {value}")


def check_in_range(
    name: str,
    value: Number,
    low: Number,
    high: Number,
    exc: Type[Exception] = ValueError,
) -> None:
    """Require ``low <= value <= high``."""
    if not low <= value <= high:
        raise exc(f"{name} must be in [{low}, {high}], got {value}")
