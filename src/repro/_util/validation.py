"""Small argument-validation helpers used across the package."""

from __future__ import annotations


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Validate that ``value`` is positive (or non-negative when not strict)."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value

