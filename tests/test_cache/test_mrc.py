"""Tests for miss-ratio curves: analytic form, fitting, measurement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CacheGeometry, MissRatioCurve, fit_exponential_mrc, measure_mrc


class TestAnalyticForm:
    def test_limits(self):
        mrc = MissRatioCurve(m0=0.9, m_inf=0.1, footprint_bytes=1e6)
        assert mrc.miss_ratio(0.0) == pytest.approx(0.9)
        assert mrc.miss_ratio(1e12) == pytest.approx(0.1, abs=1e-6)

    def test_monotone_decreasing(self):
        mrc = MissRatioCurve(m0=0.8, m_inf=0.05, footprint_bytes=2e6)
        caps = np.linspace(0, 2e7, 50)
        vals = mrc.miss_ratio(caps)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            MissRatioCurve(m0=0.1, m_inf=0.5, footprint_bytes=1e6)
        with pytest.raises(ValueError):
            MissRatioCurve(m0=0.5, m_inf=0.1, footprint_bytes=0)
        with pytest.raises(ValueError):
            MissRatioCurve(m0=1.5, m_inf=0.1, footprint_bytes=1e6)

    @settings(max_examples=50)
    @given(
        st.floats(0.05, 1.0),
        st.floats(0.0, 0.05),
        st.floats(1e3, 1e9),
        st.floats(0, 1e10),
    )
    def test_output_bounded(self, m0, m_inf, fp, cap):
        mrc = MissRatioCurve(m0=m0, m_inf=m_inf, footprint_bytes=fp)
        v = mrc.miss_ratio(cap)
        assert m_inf - 1e-12 <= v <= m0 + 1e-12


class TestFitting:
    def test_recovers_known_curve(self):
        true = MissRatioCurve(m0=0.7, m_inf=0.08, footprint_bytes=3e6)
        caps = np.linspace(1e5, 2e7, 30)
        fit = fit_exponential_mrc(caps, true.miss_ratio(caps))
        assert fit.m0 == pytest.approx(0.7, rel=0.05)
        assert fit.m_inf == pytest.approx(0.08, rel=0.1)
        assert fit.footprint_bytes == pytest.approx(3e6, rel=0.1)

    def test_noisy_fit_reasonable(self):
        rng = np.random.default_rng(7)
        true = MissRatioCurve(m0=0.6, m_inf=0.1, footprint_bytes=1e6)
        caps = np.linspace(1e4, 8e6, 40)
        noisy = np.clip(true.miss_ratio(caps) + rng.normal(0, 0.01, 40), 0, 1)
        fit = fit_exponential_mrc(caps, noisy)
        assert abs(fit.miss_ratio(2e6) - true.miss_ratio(2e6)) < 0.05

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            fit_exponential_mrc([1, 2], [0.1, 0.2])


class TestMeasurement:
    def test_measured_mrc_decreasing_for_lru(self):
        g = CacheGeometry(n_sets=8, n_ways=8)
        rng = np.random.default_rng(3)
        # Zipf-ish reuse so capacity matters.
        lines = rng.zipf(1.3, size=4000) % 256
        stream = lines * 64
        caps, ratios = measure_mrc(stream, g, way_counts=[1, 2, 4, 8])
        assert caps.shape == (4,)
        assert ratios[0] >= ratios[-1]

    def test_measured_then_fit_pipeline(self):
        g = CacheGeometry(n_sets=8, n_ways=8)
        rng = np.random.default_rng(5)
        lines = rng.zipf(1.5, size=3000) % 128
        caps, ratios = measure_mrc(lines * 64, g)
        fit = fit_exponential_mrc(caps, ratios)
        assert 0 <= fit.m_inf <= fit.m0 <= 1


def test_rising_measurements_fit_a_flat_curve():
    # Miss ratio growing with capacity has no exponential-decay reading;
    # the fit falls back to the flat curve at the measured mean.
    caps = np.linspace(1e5, 2e7, 20)
    misses = np.linspace(0.1, 0.5, 20)
    fit = fit_exponential_mrc(caps, misses)
    assert fit.m0 == fit.m_inf == pytest.approx(misses.mean())
    assert np.allclose(fit.miss_ratio(caps), misses.mean())
