"""The segmented batched kernel against the heap oracle.

:func:`simulate_stap_queue_batch` cuts every condition into segments of
``SEGMENT_QUERIES`` queries, runs all segments at once from the empty
system, then repairs each segment from its predecessor's end state
until it couples with its speculative run.  These tests pin it bit for
bit to the per-query heap loop at the segment boundaries (n = 0, 1,
L - 1, L, L + 1, several L plus a ragged head), at k = 1-3 and mixed k
in one call, in every timeout and boost regime, on tied and negative
arrivals and on zero and -0.0 demands; and they check that an
overloaded condition takes the scalar fallback and is still exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.queueing import StapQueueConfig, simulate_stap_queue_batch
from repro.queueing.ggk import MIN_VECTOR_LANES, SEGMENT_QUERIES

from .ggk_oracle import simulate_heap_queue

FIELDS = ("arrival_times", "start_times", "completion_times", "boosted", "boosted_time")
L = SEGMENT_QUERIES
#: Enough segments that up to four conditions reach the vector repair.
LONG = (MIN_VECTOR_LANES // 4 + 2) * L + 37

timeouts = st.one_of(st.sampled_from([0.0, -0.0, np.inf]), st.floats(0.0, 4.0))
boosts = st.one_of(
    st.just(1.0), st.floats(0.2, 0.95), st.floats(1.05, 5.0)
)


@st.composite
def conditions(draw, n, n_servers):
    """``(arrivals, demands, config)`` of one condition of ``n`` queries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    cfg = StapQueueConfig(
        n_servers=n_servers,
        mean_service_time=draw(st.floats(0.5, 1.5)),
        timeout=draw(timeouts),
        boost_speedup=draw(boosts),
    )
    util = draw(st.floats(0.3, 0.97))
    gaps = rng.exponential(cfg.mean_service_time / (n_servers * util), size=n)
    if draw(st.booleans()):
        gaps[rng.random(n) < 0.3] = 0.0  # tied arrivals
    arrivals = np.cumsum(gaps) - draw(st.sampled_from([0.0, 5.0]))
    demands = rng.lognormal(-0.06, 0.35, size=n)
    if draw(st.booleans()):
        demands[rng.random(n) < 0.2] = draw(st.sampled_from([0.0, -0.0]))
    return arrivals, demands, cfg


@st.composite
def batches(draw):
    """1-4 conditions of one length; one server count or mixed ones."""
    n = draw(st.sampled_from([0, 1, L - 1, L, L + 1, 3 * L, LONG]))
    n_conditions = draw(st.integers(1, 4))
    if draw(st.booleans()):
        servers = [draw(st.integers(1, 3))] * n_conditions
    else:
        servers = draw(
            st.lists(st.integers(1, 3), min_size=n_conditions, max_size=n_conditions)
        )
    cases = [draw(conditions(n, k)) for k in servers]
    arrivals = np.array([a for a, _, _ in cases]).reshape(n_conditions, n)
    demands = np.array([d for _, d, _ in cases]).reshape(n_conditions, n)
    return arrivals, demands, [cfg for _, _, cfg in cases]


def _assert_matches_oracle(batch, arrivals, demands, configs):
    for c, cfg in enumerate(configs):
        want = simulate_heap_queue(arrivals[c], demands[c], cfg)
        for field in FIELDS:
            got = getattr(batch, field)[c]
            assert got.dtype == getattr(want, field).dtype, (c, field)
            assert got.tobytes() == getattr(want, field).tobytes(), (c, field)


@settings(max_examples=60, deadline=None)
@given(case=batches())
def test_matches_heap_oracle(case):
    arrivals, demands, configs = case
    batch = simulate_stap_queue_batch(arrivals, demands, configs)
    _assert_matches_oracle(batch, arrivals, demands, configs)


def _inputs(utils, n, seed=0):
    rng = np.random.default_rng(seed)
    utils = np.asarray(utils)
    gaps = rng.standard_exponential((len(utils), n)) / (2 * utils[:, None])
    return np.cumsum(gaps, axis=1), rng.lognormal(-0.06, 0.35, (len(utils), n))


@pytest.mark.parametrize("servers", [[2] * 8, [1, 2, 3, 2, 3, 1, 2, 3]])
def test_vector_repair_is_exact(servers):
    # Eight conditions of LONG queries are well over MIN_VECTOR_LANES
    # lanes, so most segments are repaired by the vectorized sweep.
    utils = np.linspace(0.3, 0.9, len(servers))
    arrivals, demands = _inputs(utils, LONG, seed=1)
    timeout_cycle = [0.0, 0.5, np.inf, 2.0] * 2
    boost_cycle = [1.3, 0.8, 2.0, 1.0] * 2
    configs = [
        StapQueueConfig(k, 1.0, t, b)
        for k, t, b in zip(servers, timeout_cycle, boost_cycle)
    ]
    telemetry.configure()
    try:
        batch = simulate_stap_queue_batch(arrivals, demands, configs)
        repaired = telemetry.get_registry().counter("queue.repaired_queries")
    finally:
        telemetry.disable()
    assert 0 < repaired < arrivals.size
    _assert_matches_oracle(batch, arrivals, demands, configs)


def test_heavy_load_segments_end_uncoupled():
    # Near util 1 busy periods outlast segments: the vectorized sweep
    # carries many lanes to their segment's end without coupling, and
    # the scalar repair reruns their successors from the true end state.
    arrivals, demands = _inputs(np.full(40, 0.99), LONG, seed=0)
    configs = [StapQueueConfig(2, 1.0, np.inf, 1.0)] * 40
    telemetry.configure()
    try:
        batch = simulate_stap_queue_batch(arrivals, demands, configs)
        fallbacks = telemetry.get_registry().counter("queue.fallback_conditions")
    finally:
        telemetry.disable()
    assert fallbacks > 0
    _assert_matches_oracle(batch, arrivals, demands, configs)


@pytest.mark.parametrize(
    "utils,n",
    [
        ([0.5, 0.95, 0.5, 0.4, 0.6, 0.5], LONG),
        # Alone, with enough segments that the vectorized sweep starts
        # and stops at the first chunk in which no lane couples.
        ([0.95], (MIN_VECTOR_LANES + 2) * L + 5),
    ],
    ids=["with-others", "alone"],
)
def test_overloaded_condition_falls_back(utils, n):
    # At util 0.95, timeout 0 and boost 0.3 every query runs 3.3x slower
    # than its nominal rate: the queue never empties, no repaired segment
    # couples, and the condition is finished by the scalar repair.  The
    # conditions next to it couple and need no fallback.
    arrivals, demands = _inputs(utils, n, seed=2)
    configs = [StapQueueConfig(2, 1.0, 1.0, 1.5)] * len(utils)
    configs[utils.index(0.95)] = StapQueueConfig(2, 1.0, 0.0, 0.3)
    telemetry.configure()
    try:
        batch = simulate_stap_queue_batch(arrivals, demands, configs)
        reg = telemetry.get_registry()
        fallbacks = reg.counter("queue.fallback_conditions")
        repaired = reg.counter("queue.repaired_queries")
    finally:
        telemetry.disable()
    assert fallbacks == 1
    # The overloaded condition's segments 1.. are all run again.
    assert repaired >= n - L
    _assert_matches_oracle(batch, arrivals, demands, configs)
