"""Set-associative cache simulator with CAT-style per-way write enables.

Faithful to the Figure 1 data path: lookups search every way of the
indexed set (a hit can land on any way), while fills are restricted to
the ways enabled for the accessing class of service.  Replacement is LRU
among the enabled ways.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.cat import WayMask
from repro.cache.geometry import CacheGeometry


@dataclass
class AccessResult:
    """Outcome of a batch of accesses."""

    n_hits: int
    n_misses: int

    @property
    def n_accesses(self) -> int:
        return self.n_hits + self.n_misses

    @property
    def miss_ratio(self) -> float:
        n = self.n_accesses
        return self.n_misses / n if n else 0.0


class SetAssociativeCache:
    """One cache level.

    State is held in dense NumPy arrays (``tags``, ``valid``, ``owner``,
    ``last_use``) so the per-access loop touches contiguous rows; the
    batch API amortizes address decomposition across the whole stream.
    """

    INVALID_OWNER = -1

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        g = geometry
        self.tags = np.zeros((g.n_sets, g.n_ways), dtype=np.int64)
        self.valid = np.zeros((g.n_sets, g.n_ways), dtype=bool)
        self.owner = np.full((g.n_sets, g.n_ways), self.INVALID_OWNER, dtype=np.int32)
        self.last_use = np.zeros((g.n_sets, g.n_ways), dtype=np.int64)
        self._clock = 0

    @property
    def occupancy(self) -> float:
        """Fraction of lines currently valid."""
        return float(self.valid.mean())

    def access(
        self,
        addresses,
        mask: WayMask | None = None,
        cos_id: int = 0,
    ) -> AccessResult:
        """Run a stream of byte addresses through the cache.

        Parameters
        ----------
        addresses:
            1-D array of byte addresses, in program order.
        mask:
            Ways this class of service may *fill*.  ``None`` enables all
            ways.  Hits are honoured regardless of the mask, exactly as
            CAT behaves.
        cos_id:
            Class-of-service id recorded as line owner on fill.
        """
        g = self.geometry
        if mask is None:
            mask = WayMask(0, g.n_ways)
        if mask.end > g.n_ways:
            raise ValueError(f"mask {mask} exceeds {g.n_ways} ways")
        tags, sets = g.split_address(addresses)
        n = tags.shape[0]
        n_hits = 0

        fill_lo, fill_hi = mask.offset, mask.end
        tags_arr, valid_arr, owner_arr, last_use = (
            self.tags,
            self.valid,
            self.owner,
            self.last_use,
        )
        clock = self._clock
        for i in range(n):
            s = sets[i]
            t = tags[i]
            clock += 1
            row_tags = tags_arr[s]
            row_valid = valid_arr[s]
            match = np.nonzero(row_valid & (row_tags == t))[0]
            if match.size:
                w = match[0]
                n_hits += 1
                last_use[s, w] = clock
                continue
            # Miss: fill into the enabled ways, preferring an invalid way,
            # otherwise evicting the LRU line among the enabled ways.
            window_valid = row_valid[fill_lo:fill_hi]
            empty = np.nonzero(~window_valid)[0]
            if empty.size:
                w = fill_lo + empty[0]
            else:
                w = fill_lo + int(np.argmin(last_use[s, fill_lo:fill_hi]))
            tags_arr[s, w] = t
            valid_arr[s, w] = True
            owner_arr[s, w] = cos_id
            last_use[s, w] = clock

        self._clock = clock
        return AccessResult(n_hits=n_hits, n_misses=n - n_hits)
