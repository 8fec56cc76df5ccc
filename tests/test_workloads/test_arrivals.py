"""Tests for arrival processes."""

import numpy as np
import pytest

from repro.workloads import MarkovModulatedArrivals, PoissonArrivals


class TestPoisson:
    def test_mean_rate(self):
        arr = PoissonArrivals(rate=10.0).sample(20000, rng=0)
        # Mean gap should be ~1/10.
        assert np.diff(arr, prepend=0).mean() == pytest.approx(0.1, rel=0.05)

    def test_monotone_increasing(self):
        arr = PoissonArrivals(rate=3.0).sample(100, rng=1)
        assert np.all(np.diff(arr) > 0)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate=0.0)

    def test_reproducible(self):
        a = PoissonArrivals(5.0).sample(50, rng=7)
        b = PoissonArrivals(5.0).sample(50, rng=7)
        assert np.array_equal(a, b)


class TestMarkovModulated:
    def test_long_run_rate_preserved(self):
        m = MarkovModulatedArrivals(rate=3.0, burst_factor=4.0, burst_fraction=0.2)
        arr = m.sample(30000, rng=0)
        assert 30000 / arr[-1] == pytest.approx(3.0, rel=0.05)

    def test_burstier_than_poisson(self):
        m = MarkovModulatedArrivals(rate=2.0, burst_factor=5.0, burst_fraction=0.15)
        gaps = np.diff(m.sample(30000, rng=1))
        p_gaps = np.diff(PoissonArrivals(2.0).sample(30000, rng=1))
        cv = gaps.std() / gaps.mean()
        p_cv = p_gaps.std() / p_gaps.mean()
        assert cv > p_cv * 1.3

    def test_monotone(self):
        m = MarkovModulatedArrivals(rate=1.0)
        arr = m.sample(500, rng=2)
        assert np.all(np.diff(arr) > 0)

    def test_calm_factor_balances(self):
        m = MarkovModulatedArrivals(rate=1.0, burst_factor=4.0, burst_fraction=0.2)
        expect = m.burst_fraction * m.burst_factor + (1 - m.burst_fraction) * m.calm_factor
        assert expect == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MarkovModulatedArrivals(rate=0)
        with pytest.raises(ValueError):
            MarkovModulatedArrivals(rate=1.0, burst_factor=1.0)
        with pytest.raises(ValueError):
            MarkovModulatedArrivals(rate=1.0, burst_fraction=1.0)
        # burst_factor x burst_fraction >= 1 leaves no calm-rate mass.
        bad = MarkovModulatedArrivals(rate=1.0, burst_factor=6.0, burst_fraction=0.2)
        with pytest.raises(ValueError, match="calm rate"):
            bad.sample(10, rng=0)

    def test_reproducible(self):
        m = MarkovModulatedArrivals(rate=1.0)
        assert np.array_equal(m.sample(100, rng=9), m.sample(100, rng=9))
