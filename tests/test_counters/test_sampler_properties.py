"""Property tests: vectorized segment means and boost overlap equal the
scalar walk exactly on random segment tables.

Tables have duplicate snapshot times (zero-length segments), intervals
start before the first snapshot or end past the last one, and wide
intervals span many segments.  Half the tables are boosted and busy
throughout, where the scalar walk's fractions can round to 1 + 1 ulp;
the vectorized code caps them at 1 and is otherwise equal.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.profiler import _boost_overlap
from repro.counters.sampler import _segment_means
from repro.testbed import SegmentTable

from .sampler_oracle import boost_overlap_oracle, segment_means_oracle


@st.composite
def tables(draw, max_n=40):
    n = draw(st.integers(1, max_n))
    # A saturated table is busy (n_servers <= 4) and boosted throughout.
    saturated = draw(st.booleans())

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    gaps = column(st.one_of(st.just(0.0), st.floats(1e-3, 3.0)))
    return SegmentTable(
        time=draw(st.floats(-5.0, 5.0)) + np.cumsum(gaps),
        capacity=np.array(column(st.floats(0.0, 3e7)), dtype=float),
        n_in_service=np.array(
            column(st.integers(4 if saturated else 0, 6)), dtype=np.int64
        ),
        n_queued=np.array(column(st.integers(0, 20)), dtype=np.int64),
        boosted=np.array(column(st.booleans()), dtype=bool) | saturated,
    )


def _capped(means):
    """Oracle means with the two fractions capped at 1."""
    means = np.array(means, dtype=float)
    means[..., 1:3] = np.minimum(means[..., 1:3], 1.0)
    return means


starts = st.floats(-15.0, 130.0)
widths = st.floats(1e-3, 60.0)


@settings(max_examples=150, deadline=None)
@given(
    table=tables(),
    t_start=starts,
    dt=st.floats(0.05, 10.0),
    n_ticks=st.integers(1, 30),
    n_servers=st.integers(1, 4),
)
def test_tick_means_equal_oracle(table, t_start, dt, n_ticks, n_servers):
    a = t_start + np.arange(n_ticks) * dt
    b = a + dt
    got = _segment_means(table, a, b, n_servers)
    rows = list(table)
    want = _capped(
        [
            segment_means_oracle(rows, t0, t1, n_servers)
            for t0, t1 in zip(a.tolist(), b.tolist())
        ]
    ).T
    assert got.shape == (4, n_ticks)
    assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(table=tables(), t0=starts, width=widths, n_servers=st.integers(1, 4))
def test_interval_means_equal_oracle(table, t0, width, n_servers):
    t1 = t0 + width
    got = _segment_means(table, t0, t1, n_servers)
    want = _capped(segment_means_oracle(list(table), t0, t1, n_servers))
    assert got.shape == (4,)
    assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(own=tables(), partner=tables(), t0=starts, width=widths)
def test_boost_overlap_equals_oracle(own, partner, t0, width):
    t1 = t0 + width
    got = _boost_overlap(own, partner, t0, t1)
    assert got == min(boost_overlap_oracle(list(own), list(partner), t0, t1), 1.0)
    assert got == _boost_overlap(partner, own, t0, t1)
    assert 0.0 <= got <= 1.0
