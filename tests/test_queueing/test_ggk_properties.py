"""Property tests for the STAP queueing kernels.

Random arrival/demand samples and configs check the invariants every
run must satisfy, that the scalar serial kernel reproduces the heap
oracle it replaced, and that the serial and batched kernels agree bit
for bit.
"""

import heapq

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.queueing import (
    StapQueueConfig,
    simulate_stap_queue,
    simulate_stap_queue_batch,
)

from .ggk_oracle import simulate_heap_queue

FIELDS = ("arrival_times", "start_times", "completion_times", "boosted", "boosted_time")

timeouts = st.one_of(st.just(np.inf), st.floats(0.0, 4.0))
configs = st.builds(
    StapQueueConfig,
    n_servers=st.integers(1, 4),
    mean_service_time=st.floats(0.2, 2.0),
    timeout=timeouts,
    boost_speedup=st.floats(0.2, 5.0),
)


@st.composite
def samples(draw, max_n=120):
    """``(arrivals, demands)`` for one run: sorted gaps, positive work."""
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(draw(st.floats(0.05, 2.0)), size=n))
    demands = rng.lognormal(0.0, draw(st.floats(0.0, 1.0)), size=n)
    return arrivals, demands


def _plain_ggk(arrivals, demands, n_servers, mean_service_time):
    """FCFS G/G/k with no short-term allocation: ``(starts, completions)``."""
    free_at = [0.0] * n_servers
    starts = np.empty(len(arrivals))
    completions = np.empty(len(arrivals))
    for i, (a, d) in enumerate(zip(arrivals, demands)):
        earliest = heapq.heappop(free_at)
        t0 = a if earliest < a else earliest
        starts[i] = t0
        completions[i] = t0 + d * mean_service_time
        heapq.heappush(free_at, completions[i])
    return starts, completions


@settings(max_examples=60, deadline=None)
@given(sample=samples(), cfg=configs)
def test_boosted_time_within_service_span(sample, cfg):
    res = simulate_stap_queue(*sample, cfg)
    span = res.completion_times - res.start_times
    assert np.all(res.start_times >= res.arrival_times)
    assert np.all(res.boosted_time >= 0)
    # completion - start is a rounded difference of absolute times, so
    # allow it to fall short of the boosted duration by a few ulps.
    assert np.all(res.boosted_time <= span + 2 * np.spacing(res.completion_times))
    assert np.array_equal(res.boosted, res.boosted_time > 0)


@settings(max_examples=60, deadline=None)
@given(
    sample=samples(),
    n_servers=st.integers(1, 4),
    mean_service_time=st.floats(0.2, 2.0),
    disable=st.sampled_from(["timeout", "boost"]),
    other=st.floats(0.0, 5.0),
)
def test_disabled_boost_is_plain_ggk(
    sample, n_servers, mean_service_time, disable, other
):
    # timeout=inf never warns; boost=1 warns but does not speed up.
    if disable == "timeout":
        cfg = StapQueueConfig(n_servers, mean_service_time, np.inf, other + 0.1)
    else:
        cfg = StapQueueConfig(n_servers, mean_service_time, other, 1.0)
    res = simulate_stap_queue(*sample, cfg)
    starts, completions = _plain_ggk(*sample, n_servers, mean_service_time)
    assert np.array_equal(res.start_times, starts)
    assert np.array_equal(res.completion_times, completions)
    assert not res.boosted.any()
    assert not res.boosted_time.any()


@settings(max_examples=60, deadline=None)
@given(sample=samples(), cfg=configs)
def test_single_server_starts_in_order(sample, cfg):
    cfg = StapQueueConfig(1, cfg.mean_service_time, cfg.timeout, cfg.boost_speedup)
    res = simulate_stap_queue(*sample, cfg)
    assert np.all(np.diff(res.start_times) >= 0)
    # FCFS with one server: a query starts once its predecessor is done.
    assert np.all(res.start_times[1:] >= res.completion_times[:-1])


@settings(max_examples=40, deadline=None)
@given(
    cfgs=st.lists(configs, min_size=1, max_size=6),
    n=st.integers(1, 80),
    seed=st.integers(0, 2**16),
)
def test_batched_kernel_matches_serial(cfgs, n, seed):
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(0.5, size=(len(cfgs), n)), axis=1)
    demands = rng.lognormal(0.0, 0.5, size=(len(cfgs), n))
    batch = simulate_stap_queue_batch(arrivals, demands, cfgs)
    for c, cfg in enumerate(cfgs):
        serial = simulate_stap_queue(arrivals[c], demands[c], cfg)
        for field in FIELDS:
            assert np.array_equal(getattr(batch, field)[c], getattr(serial, field))


@st.composite
def oracle_cases(draw):
    """``(arrivals, demands, config)`` reaching every kernel branch:
    k = 1-4, empty runs, tied arrivals, signed-zero, infinite and finite
    timeouts, and boost 1.0 next to real speedups and slowdowns."""
    n = draw(st.integers(0, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    gaps = rng.exponential(draw(st.floats(0.05, 2.0)), size=n)
    if draw(st.booleans()):
        gaps[rng.random(n) < 0.4] = 0.0
    demands = rng.lognormal(0.0, draw(st.floats(0.0, 1.0)), size=n)
    cfg = StapQueueConfig(
        n_servers=draw(st.integers(1, 4)),
        mean_service_time=draw(st.floats(0.2, 2.0)),
        timeout=draw(
            st.one_of(st.sampled_from([0.0, -0.0, np.inf]), st.floats(0.0, 4.0))
        ),
        boost_speedup=draw(st.one_of(st.just(1.0), st.floats(0.2, 5.0))),
    )
    return np.cumsum(gaps), demands, cfg


@settings(max_examples=200, deadline=None)
@given(case=oracle_cases())
def test_scalar_kernel_matches_heap_oracle(case):
    got = simulate_stap_queue(*case)
    want = simulate_heap_queue(*case)
    for field in FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert a.tobytes() == b.tobytes(), field
