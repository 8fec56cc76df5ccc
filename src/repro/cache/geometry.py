"""Cache geometry: sets x ways x line size, and address decomposition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _is_power_of_two(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """Physical organization of one cache level.

    Parameters
    ----------
    n_sets:
        Number of sets (must be a power of two so set indexing is a bit
        slice of the address, as in real hardware).
    n_ways:
        Associativity. CAT way masks partition this dimension.
    line_size:
        Cache line size in bytes (power of two).
    """

    n_sets: int
    n_ways: int
    line_size: int = 64

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.n_sets):
            raise ValueError(f"n_sets must be a power of two, got {self.n_sets}")
        if self.n_ways <= 0:
            raise ValueError(f"n_ways must be positive, got {self.n_ways}")
        if not _is_power_of_two(self.line_size):
            raise ValueError(f"line_size must be a power of two, got {self.line_size}")

    @property
    def way_size_bytes(self) -> int:
        """Capacity of a single way in bytes (the CAT allocation unit)."""
        return self.n_sets * self.line_size

    @property
    def offset_bits(self) -> int:
        return int(self.line_size).bit_length() - 1

    @property
    def index_bits(self) -> int:
        return int(self.n_sets).bit_length() - 1

    def split_address(self, addresses) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (tag, set index) decomposition of byte addresses.

        Returns
        -------
        tags, set_indices:
            Integer arrays of the same shape as ``addresses``.
        """
        addr = np.asarray(addresses, dtype=np.int64)
        if np.any(addr < 0):
            raise ValueError("addresses must be non-negative")
        line = addr >> self.offset_bits
        set_idx = line & (self.n_sets - 1)
        tag = line >> self.index_bits
        return tag, set_idx
