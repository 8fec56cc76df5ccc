"""Shared utilities: seeded RNG handling and argument validation."""

from repro._util.rng import as_rng, spawn_rngs
from repro._util.validation import check_positive

__all__ = [
    "as_rng",
    "spawn_rngs",
    "check_positive",
]
