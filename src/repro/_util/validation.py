"""Small argument-validation helpers used across the package."""

from __future__ import annotations

import numbers


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Validate that ``value`` is positive (or non-negative when not strict)."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_count(name: str, value, minimum: int) -> int:
    """Validate that ``value`` is an integer (not a bool) ``>= minimum``.

    A float such as ``2.0`` or ``nan`` is a ``TypeError`` even when it
    is integral: counts index and size arrays, and NumPy and ``heapq``
    accept or reject floats in different places.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return value
