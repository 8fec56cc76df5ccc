"""Tests for counter synthesis."""

import numpy as np
import pytest

from repro.counters import COUNTER_NAMES, N_COUNTERS, synthesize_tick
from repro.counters.events import synthesize_ticks
from repro.workloads import get_workload
from repro.workloads.base import MB


def tick(spec=None, cap=4 * MB, busy=1.0, boost=0.0, dt=1.0, ways=2.0, noise=0.0, rng=0):
    spec = spec or get_workload("bfs")
    return synthesize_tick(
        spec,
        capacity_bytes=cap,
        busy_fraction=busy,
        boost_fraction=boost,
        dt=dt,
        ways_allocated=ways,
        rng=rng,
        noise=noise,
    )


class TestShape:
    def test_29_counters(self):
        assert N_COUNTERS == 29 == len(COUNTER_NAMES)
        assert tick().shape == (29,)

    def test_nonnegative(self):
        v = tick(noise=0.5, rng=3)
        assert np.all(v >= 0)


class TestCausalStructure:
    def _get(self, vec, name):
        return vec[COUNTER_NAMES.index(name)]

    def test_idle_service_emits_zero_traffic(self):
        v = tick(busy=0.0)
        assert self._get(v, "l1d_loads") == 0.0
        assert self._get(v, "llc_load_misses") == 0.0

    def test_more_capacity_fewer_llc_misses(self):
        lo = tick(cap=2 * MB)
        hi = tick(cap=16 * MB)
        assert self._get(hi, "llc_load_misses") < self._get(lo, "llc_load_misses")

    def test_l2_misses_feed_llc(self):
        v = tick()
        llc_refs = self._get(v, "llc_references")
        l2_miss = self._get(v, "l2_load_misses") + self._get(v, "l2_store_misses")
        assert llc_refs >= l2_miss

    def test_misses_bounded_by_accesses(self):
        v = tick()
        assert self._get(v, "l1d_load_misses") <= self._get(v, "l1d_loads")
        assert self._get(v, "llc_load_misses") <= self._get(v, "llc_loads") + 1e-9

    def test_boost_flag_passthrough(self):
        assert self._get(tick(boost=0.7), "boost_active") == pytest.approx(0.7)

    def test_streaming_kind_misses_more(self):
        stream = tick(spec=get_workload("spstream"))
        loop = tick(spec=get_workload("knn"))
        stream_mr = self._get(stream, "l1d_load_misses") / self._get(stream, "l1d_loads")
        loop_mr = self._get(loop, "l1d_load_misses") / self._get(loop, "l1d_loads")
        assert stream_mr > loop_mr

    def test_stall_cycles_track_capacity(self):
        lo = tick(cap=1 * MB)
        hi = tick(cap=16 * MB)
        assert self._get(lo, "stalled_cycles_mem") > self._get(hi, "stalled_cycles_mem")

    def test_scales_with_dt(self):
        v1 = tick(dt=1.0)
        v2 = tick(dt=2.0)
        assert self._get(v2, "instructions") == pytest.approx(
            2 * self._get(v1, "instructions")
        )


class TestNoise:
    def test_noise_zero_deterministic(self):
        assert np.array_equal(tick(noise=0.0, rng=1), tick(noise=0.0, rng=2))

    def test_noise_perturbs(self):
        assert not np.array_equal(tick(noise=0.1, rng=1), tick(noise=0.1, rng=2))


class TestValidation:
    def test_bad_dt(self):
        with pytest.raises(ValueError):
            tick(dt=0.0)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            tick(busy=1.5)
        with pytest.raises(ValueError):
            tick(boost=-0.1)


def test_per_tick_inputs_must_be_at_most_1d():
    with pytest.raises(ValueError, match="1-D"):
        synthesize_ticks(
            get_workload("bfs"),
            capacity_bytes=np.full((2, 3), 4 * MB),
            busy_fraction=1.0,
            boost_fraction=0.0,
            dt=1.0,
            ways_allocated=2.0,
            rng=0,
        )
