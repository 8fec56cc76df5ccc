"""Tests for synthetic access-stream generators."""

import numpy as np
import pytest

from repro.cache import CacheGeometry, SetAssociativeCache
from repro.workloads import (
    loop_stream,
    sequential_stream,
    strided_stream,
    workload_stream,
    zipf_stream,
)


class TestGenerators:
    def test_all_line_aligned_and_bounded(self):
        for kind in ("zipf", "sequential", "strided", "loop"):
            s = workload_stream(kind, 500, n_lines=128, rng=0)
            assert s.shape == (500,)
            assert np.all(s % 64 == 0)
            assert np.all((s >= 0) & (s < 128 * 64))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown stream kind"):
            workload_stream("random-walk", 10, 10)

    def test_sequential_no_immediate_reuse(self):
        s = sequential_stream(100, n_lines=128)
        assert len(np.unique(s)) == 100

    def test_sequential_wraps(self):
        s = sequential_stream(10, n_lines=4)
        assert list(s[:5] // 64) == [0, 1, 2, 3, 0]

    def test_loop_concentrates_on_hot_set(self):
        s = loop_stream(5000, n_lines=1000, hot_fraction=0.05, rng=1)
        hot = s < 50 * 64
        assert hot.mean() > 0.8

    def test_zipf_skew_increases_reuse(self):
        low = zipf_stream(5000, 1000, skew=1.1, rng=2)
        high = zipf_stream(5000, 1000, skew=2.5, rng=2)
        assert len(np.unique(high)) < len(np.unique(low))

    def test_strided_pattern(self):
        s = strided_stream(6, n_lines=16, stride=4)
        assert list(s // 64) == [0, 4, 8, 12, 0, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_stream(10, 0)
        with pytest.raises(ValueError):
            strided_stream(10, 16, stride=0)
        with pytest.raises(ValueError):
            loop_stream(10, 16, hot_fraction=0)

    def test_reproducible(self):
        a = zipf_stream(100, 64, rng=42)
        b = zipf_stream(100, 64, rng=42)
        assert np.array_equal(a, b)


class TestStreamCacheBehaviour:
    """The streams must induce their advertised cache behaviour."""

    def _miss_ratio(self, stream, n_ways=4):
        cache = SetAssociativeCache(CacheGeometry(n_sets=16, n_ways=n_ways))
        warm = len(stream) // 4
        cache.access(stream[:warm])
        return cache.access(stream[warm:]).miss_ratio

    def test_loop_hits_more_than_sequential(self):
        n, lines = 4000, 512
        loop_mr = self._miss_ratio(loop_stream(n, lines, rng=0))
        seq_mr = self._miss_ratio(sequential_stream(n, lines))
        assert loop_mr < seq_mr

    def test_sequential_thrashes(self):
        # 512 lines >> 64-line cache and no reuse within the window.
        mr = self._miss_ratio(sequential_stream(4000, 512))
        assert mr > 0.9


def test_sequential_stream_needs_lines():
    with pytest.raises(ValueError, match="n_lines"):
        sequential_stream(10, 0)
