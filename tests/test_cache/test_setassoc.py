"""Tests for the set-associative cache with per-way write enables."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CacheGeometry, SetAssociativeCache, WayMask


def small_cache(n_sets=4, n_ways=4, line=64):
    return SetAssociativeCache(CacheGeometry(n_sets=n_sets, n_ways=n_ways, line_size=line))


class TestBasicBehaviour:
    def test_first_access_misses_second_hits(self):
        c = small_cache()
        r1 = c.access([0])
        r2 = c.access([0])
        assert r1.n_misses == 1 and r2.n_hits == 1

    def test_same_line_different_offset_hits(self):
        c = small_cache()
        c.access([0])
        r = c.access([63])
        assert r.n_hits == 1

    def test_working_set_fits_all_hits_after_warmup(self):
        c = small_cache(n_sets=4, n_ways=4)
        # 16 distinct lines = exactly capacity
        addrs = np.arange(16) * 64
        c.access(addrs)
        r = c.access(addrs)
        assert r.n_hits == 16

    def test_working_set_exceeds_capacity_thrash(self):
        c = small_cache(n_sets=1, n_ways=2)
        # 3 lines mapping to the single set, cyclic: classic LRU thrash
        addrs = np.tile(np.arange(3) * 64, 10)
        r = c.access(addrs)
        assert r.n_hits == 0

    def test_lru_evicts_least_recent(self):
        c = small_cache(n_sets=1, n_ways=2)
        c.access([0 * 64, 1 * 64])  # set holds {0, 1}
        c.access([0 * 64])  # touch 0; LRU is now 1
        c.access([2 * 64])  # evicts 1
        assert c.access([0 * 64]).n_hits == 1
        assert c.access([1 * 64]).n_misses == 1

    def test_eviction_counted(self):
        c = small_cache(n_sets=1, n_ways=1)
        r = c.access([0, 64])
        assert r.n_evictions == 1


class TestWriteEnableMasks:
    def test_fills_restricted_to_mask(self):
        c = small_cache(n_sets=2, n_ways=4)
        mask = WayMask(1, 2)
        c.access(np.arange(8) * 64, mask=mask, cos_id=7)
        filled_ways = np.nonzero(c.valid.any(axis=0))[0]
        assert set(filled_ways.tolist()) <= {1, 2}
        assert set(c.owner[c.valid].tolist()) == {7}

    def test_hit_outside_mask_still_hits(self):
        c = small_cache(n_sets=1, n_ways=4)
        c.access([0], mask=WayMask(0, 1), cos_id=0)
        # A different COS whose mask excludes way 0 still hits the line.
        r = c.access([0], mask=WayMask(2, 2), cos_id=1)
        assert r.n_hits == 1

    def test_mask_shrinks_effective_capacity(self):
        addrs = np.tile(np.arange(4) * 64, 20)  # 4 lines in one set
        full = small_cache(n_sets=1, n_ways=4)
        half = small_cache(n_sets=1, n_ways=4)
        r_full = full.access(addrs)
        r_half = half.access(addrs, mask=WayMask(0, 2))
        assert r_full.n_misses < r_half.n_misses

    def test_mask_exceeding_ways_rejected(self):
        c = small_cache(n_sets=2, n_ways=2)
        with pytest.raises(ValueError, match="exceeds"):
            c.access([0], mask=WayMask(0, 4))


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 1023), min_size=1, max_size=200),
        st.integers(1, 4),
    )
    def test_hits_never_exceed_accesses(self, lines, n_ways_mask):
        c = small_cache(n_sets=4, n_ways=4)
        addrs = np.asarray(lines) * 64
        r = c.access(addrs, mask=WayMask(0, n_ways_mask))
        assert 0 <= r.n_hits <= len(lines)
        assert r.n_hits + r.n_misses == len(lines)
        assert r.hits.shape == (len(lines),)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=100))
    def test_repeat_pass_hit_count_monotone(self, lines):
        """Re-running the same stream can only raise the hit count when the
        working set fits in the enabled capacity."""
        c = small_cache(n_sets=16, n_ways=16)  # big enough: 256 lines
        addrs = np.asarray(lines) * 64
        r1 = c.access(addrs)
        r2 = c.access(addrs)
        assert r2.n_hits >= r1.n_hits
        assert r2.n_hits == len(lines)  # everything resident now

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4))
    def test_more_ways_never_more_misses_lru(self, extra):
        """LRU is a stack algorithm: enabling more ways cannot add misses
        when filling from way 0 upward."""
        rng = np.random.default_rng(42)
        addrs = rng.integers(0, 64, size=300) * 64
        small = small_cache(n_sets=2, n_ways=8)
        big = small_cache(n_sets=2, n_ways=8)
        r_small = small.access(addrs, mask=WayMask(0, 2))
        r_big = big.access(addrs, mask=WayMask(0, 2 + extra))
        assert r_big.n_misses <= r_small.n_misses
