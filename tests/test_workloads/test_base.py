"""Tests for WorkloadSpec service-time and demand models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import MissRatioCurve
from repro.workloads import WorkloadSpec
from repro.workloads.base import MB


def make_spec(**overrides):
    defaults = dict(
        name="w",
        description="test",
        cache_pattern="test",
        mrc=MissRatioCurve(m0=0.6, m_inf=0.1, footprint_bytes=4 * MB),
        baseline_service_time=1.0,
        memory_boundedness=0.5,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestServiceTime:
    def test_baseline_capacity_gives_baseline_time(self):
        s = make_spec()
        assert s.service_time(s.baseline_capacity) == pytest.approx(1.0)

    def test_more_cache_is_faster(self):
        s = make_spec()
        assert s.service_time(8 * MB) < s.service_time(2 * MB)

    def test_less_cache_is_slower(self):
        s = make_spec()
        assert s.service_time(0.5 * MB) > s.service_time(2 * MB)

    def test_compute_bound_insensitive(self):
        s = make_spec(memory_boundedness=0.0)
        assert s.service_time(16 * MB) == pytest.approx(1.0)

    def test_speedup_consistent(self):
        s = make_spec()
        assert s.speedup(8 * MB) == pytest.approx(
            1.0 / s.service_time(8 * MB), rel=1e-9
        )

    def test_vectorized_capacity(self):
        s = make_spec()
        caps = np.array([1, 2, 4, 8]) * MB
        times = s.service_time(caps)
        assert times.shape == (4,)
        assert np.all(np.diff(times) <= 0)

    @settings(max_examples=40)
    @given(st.floats(0.0, 1.0), st.floats(0.1 * MB, 40 * MB))
    def test_service_time_positive_and_bounded(self, beta, cap):
        s = make_spec(memory_boundedness=beta)
        t = s.service_time(cap)
        assert t > 0
        # With the miss floor > 0, slowdown/speedup are bounded by the
        # ratio of m0 (resp. m_inf) to baseline miss ratio.
        m_base = s.mrc.miss_ratio(s.baseline_capacity)
        bound_hi = (1 - beta) + beta * s.mrc.m0 / m_base
        bound_lo = (1 - beta) + beta * s.mrc.m_inf / m_base
        assert bound_lo - 1e-9 <= t <= bound_hi + 1e-9


class TestFillIntensity:
    def test_scales_with_miss_ratio(self):
        s = make_spec(access_intensity=1e6)
        assert s.fill_intensity(1 * MB) > s.fill_intensity(8 * MB)

    def test_magnitude(self):
        s = make_spec(access_intensity=1e6)
        m = s.mrc.miss_ratio(2 * MB)
        assert s.fill_intensity(2 * MB) == pytest.approx(1e6 * m)


class TestDemands:
    def test_mean_one(self):
        s = make_spec(service_cv=0.4)
        d = s.sample_demands(20000, rng=1)
        assert d.mean() == pytest.approx(1.0, rel=0.05)

    def test_cv_matches(self):
        s = make_spec(service_cv=0.5)
        d = s.sample_demands(40000, rng=2)
        assert d.std() / d.mean() == pytest.approx(0.5, rel=0.1)

    def test_zero_cv_deterministic(self):
        s = make_spec(service_cv=0.0)
        assert np.all(s.sample_demands(10, rng=3) == 1.0)

    def test_reproducible(self):
        s = make_spec()
        assert np.array_equal(s.sample_demands(50, rng=7), s.sample_demands(50, rng=7))


class TestValidation:
    def test_bad_service_time(self):
        with pytest.raises(ValueError):
            make_spec(baseline_service_time=0)

    def test_bad_boundedness(self):
        with pytest.raises(ValueError):
            make_spec(memory_boundedness=1.5)

    def test_bad_cv(self):
        with pytest.raises(ValueError):
            make_spec(service_cv=-0.1)

    def test_bad_intensity(self):
        with pytest.raises(ValueError):
            make_spec(access_intensity=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("baseline_service_time", np.nan),
            ("baseline_service_time", np.inf),
            ("service_cv", np.nan),
            ("service_cv", np.inf),
            ("access_intensity", np.nan),
            ("access_intensity", np.inf),
            ("store_fraction", np.nan),
            ("store_fraction", -0.1),
            ("store_fraction", 1.5),
            ("n_processes", 0),
            ("baseline_capacity", np.nan),
            ("baseline_capacity", np.inf),
            ("baseline_capacity", 0.0),
        ],
    )
    def test_non_finite_or_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_spec(**{field: value})


def test_workload_that_never_misses_is_cache_insensitive():
    spec = make_spec(mrc=MissRatioCurve(m0=0.0, m_inf=0.0, footprint_bytes=4 * MB))
    for cap in (0.5 * MB, 2 * MB, 64 * MB):
        assert spec.service_time(cap) == spec.baseline_service_time
        assert spec.speedup(cap) == 1.0
