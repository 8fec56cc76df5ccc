"""Tests for cache geometry and address decomposition."""

import pytest
from hypothesis import given, strategies as st

from repro.cache import CacheGeometry


class TestConstruction:
    def test_basic_sizes(self):
        g = CacheGeometry(n_sets=1024, n_ways=16, line_size=64)
        assert g.way_size_bytes == 1024 * 64

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError, match="power of two"):
            CacheGeometry(n_sets=1000, n_ways=16)

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ValueError, match="power of two"):
            CacheGeometry(n_sets=64, n_ways=4, line_size=48)

    def test_rejects_nonpositive_ways(self):
        with pytest.raises(ValueError, match="n_ways"):
            CacheGeometry(n_sets=64, n_ways=0)


class TestAddressSplit:
    def test_line_offset_ignored(self):
        g = CacheGeometry(n_sets=64, n_ways=4, line_size=64)
        t0, s0 = g.split_address([128])
        t1, s1 = g.split_address([128 + 63])
        assert t0 == t1 and s0 == s1

    def test_adjacent_lines_adjacent_sets(self):
        g = CacheGeometry(n_sets=64, n_ways=4, line_size=64)
        _, s = g.split_address([0, 64, 128])
        assert list(s) == [0, 1, 2]

    def test_set_wraps(self):
        g = CacheGeometry(n_sets=4, n_ways=2, line_size=64)
        _, s = g.split_address([4 * 64])
        assert s[0] == 0

    def test_negative_address_rejected(self):
        g = CacheGeometry(n_sets=4, n_ways=2)
        with pytest.raises(ValueError, match="non-negative"):
            g.split_address([-1])

    @given(st.integers(min_value=0, max_value=2**40))
    def test_roundtrip_reconstruction(self, addr):
        g = CacheGeometry(n_sets=256, n_ways=8, line_size=64)
        tag, idx = g.split_address([addr])
        line = (int(tag[0]) << g.index_bits) | int(idx[0])
        assert line == addr // g.line_size

    @given(
        st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=50)
    )
    def test_vectorized_matches_scalar(self, addrs):
        g = CacheGeometry(n_sets=128, n_ways=4)
        tags, sets = g.split_address(addrs)
        for a, t, s in zip(addrs, tags, sets):
            t1, s1 = g.split_address([a])
            assert t == t1[0] and s == s1[0]
