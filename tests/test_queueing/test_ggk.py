"""Tests for the STAP-aware G/G/k simulator (Stage 3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.queueing import (
    QueueResult,
    StapQueueConfig,
    mmk_mean_response,
    simulate_stap_queue,
)
from repro.workloads import PoissonArrivals

from .ggk_oracle import _service_duration


def run_mm1(rho, n=40000, timeout=np.inf, boost=1.0, seed=0, servers=1):
    rng = np.random.default_rng(seed)
    rate = rho * servers
    arrivals = PoissonArrivals(rate).sample(n, rng=rng)
    demands = rng.exponential(1.0, size=n)
    cfg = StapQueueConfig(
        n_servers=servers, mean_service_time=1.0, timeout=timeout, boost_speedup=boost
    )
    return simulate_stap_queue(arrivals, demands, cfg).drop_warmup(0.1)


class TestServiceDuration:
    """The heap oracle's closed-form step, inlined by the shipped kernels."""

    def test_never_triggers(self):
        dur, b = _service_duration(start=0.0, warn_at=10.0, work=2.0, boost_speedup=3.0)
        assert dur == 2.0 and b == 0.0

    def test_triggers_before_start(self):
        dur, b = _service_duration(start=5.0, warn_at=2.0, work=2.0, boost_speedup=2.0)
        assert dur == 1.0 and b == 1.0

    def test_triggers_mid_execution(self):
        dur, b = _service_duration(start=0.0, warn_at=1.0, work=3.0, boost_speedup=2.0)
        # 1s at rate 1, remaining 2s of work at rate 2 -> 1s.
        assert dur == pytest.approx(2.0) and b == pytest.approx(1.0)

    def test_boost_one_is_noop(self):
        dur, b = _service_duration(start=0.0, warn_at=0.0, work=3.0, boost_speedup=1.0)
        assert dur == 3.0 and b == 0.0

    def test_trigger_exactly_at_completion(self):
        dur, b = _service_duration(start=0.0, warn_at=3.0, work=3.0, boost_speedup=5.0)
        assert dur == 3.0 and b == 0.0


class TestAgainstClosedForm:
    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.85])
    def test_mm1_mean_response(self, rho):
        res = run_mm1(rho, n=60000, seed=1)
        expect = mmk_mean_response(arrival_rate=rho, service_rate=1.0, n_servers=1)
        assert res.response_times.mean() == pytest.approx(expect, rel=0.08)

    def test_mmk_mean_response(self):
        res = run_mm1(0.7, n=60000, servers=3, seed=2)
        expect = mmk_mean_response(arrival_rate=2.1, service_rate=1.0, n_servers=3)
        assert res.response_times.mean() == pytest.approx(expect, rel=0.08)


class TestStapBehaviour:
    def test_boost_reduces_response_time(self):
        slow = run_mm1(0.85, timeout=np.inf, seed=3)
        fast = run_mm1(0.85, timeout=1.0, boost=2.0, seed=3)
        assert fast.response_times.mean() < slow.response_times.mean()
        assert np.percentile(fast.response_times, 95) < np.percentile(
            slow.response_times, 95
        )

    def test_lower_timeout_boosts_more_often(self):
        tight = run_mm1(0.8, timeout=0.5, boost=2.0, seed=4)
        loose = run_mm1(0.8, timeout=3.0, boost=2.0, seed=4)
        assert tight.boost_fraction > loose.boost_fraction

    def test_zero_timeout_boosts_everything(self):
        res = run_mm1(0.5, timeout=0.0, boost=2.0, seed=5)
        assert res.boost_fraction == pytest.approx(1.0)

    def test_infinite_timeout_never_boosts(self):
        res = run_mm1(0.8, timeout=np.inf, boost=2.0, seed=6)
        assert res.boost_fraction == 0.0

    def test_boost_busy_time_positive_only_when_triggered(self):
        res = run_mm1(0.8, timeout=1.0, boost=2.0, seed=7)
        assert res.boost_busy_time > 0
        assert np.all((res.boosted_time > 0) == res.boosted)

    def test_zero_timeout_full_boost_scales_service(self):
        """With timeout 0 every query runs entirely at the boosted rate."""
        arrivals = np.arange(1, 101, dtype=float) * 100.0  # no queueing
        demands = np.ones(100)
        cfg = StapQueueConfig(
            n_servers=1, mean_service_time=2.0, timeout=0.0, boost_speedup=4.0
        )
        res = simulate_stap_queue(arrivals, demands, cfg)
        assert np.allclose(res.response_times, 0.5)


class TestInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(0.1, 0.9),
        st.floats(0.1, 5.0),
        st.floats(1.0, 4.0),
        st.integers(1, 4),
    )
    def test_causality_and_ordering(self, rho, timeout, boost, servers):
        rng = np.random.default_rng(11)
        arrivals = PoissonArrivals(rho * servers).sample(300, rng=rng)
        demands = rng.exponential(1.0, size=300)
        cfg = StapQueueConfig(
            n_servers=servers, mean_service_time=1.0, timeout=timeout, boost_speedup=boost
        )
        res = simulate_stap_queue(arrivals, demands, cfg)
        assert np.all(res.start_times >= res.arrival_times - 1e-12)
        assert np.all(res.completion_times >= res.start_times)
        # Never more than n_servers queries in service simultaneously.
        for t in res.start_times[:: max(1, len(arrivals) // 20)]:
            in_service = np.sum((res.start_times <= t) & (res.completion_times > t))
            assert in_service <= servers

    @settings(max_examples=20, deadline=None)
    @given(st.floats(1.01, 5.0))
    def test_boosting_never_hurts(self, boost):
        base = run_mm1(0.7, n=3000, timeout=np.inf, seed=13)
        boosted = run_mm1(0.7, n=3000, timeout=1.0, boost=boost, seed=13)
        assert boosted.response_times.mean() <= base.response_times.mean() + 1e-9


class TestLittlesLaw:
    def _time_average_in_system(self, res):
        """Integrate the number-in-system process from event times."""
        events = np.concatenate(
            [
                np.stack([res.arrival_times, np.ones_like(res.arrival_times)], 1),
                np.stack(
                    [res.completion_times, -np.ones_like(res.completion_times)], 1
                ),
            ]
        )
        events = events[np.argsort(events[:, 0], kind="stable")]
        t0, t1 = events[0, 0], events[-1, 0]
        times = events[:, 0]
        counts = np.cumsum(events[:, 1])
        dt = np.diff(np.append(times, t1))
        return float((counts * dt).sum() / (t1 - t0))

    @pytest.mark.parametrize("rho", [0.5, 0.8])
    def test_l_equals_lambda_w(self, rho):
        res = run_mm1(rho, n=30000, seed=21)
        lam = len(res.arrival_times) / (
            res.arrival_times[-1] - res.arrival_times[0]
        )
        L = self._time_average_in_system(res)
        W = res.response_times.mean()
        assert L == pytest.approx(lam * W, rel=0.05)

    def test_littles_law_holds_under_stap(self):
        """The law is distribution-free: it must survive the timeout-
        coupled service rates that break Markov closed forms."""
        res = run_mm1(0.85, n=30000, timeout=0.8, boost=2.0, seed=22)
        lam = len(res.arrival_times) / (
            res.arrival_times[-1] - res.arrival_times[0]
        )
        L = self._time_average_in_system(res)
        W = res.response_times.mean()
        assert L == pytest.approx(lam * W, rel=0.05)


class TestValidation:
    def test_unsorted_arrivals_rejected(self):
        cfg = StapQueueConfig()
        with pytest.raises(ValueError, match="sorted"):
            simulate_stap_queue([2.0, 1.0], [1.0, 1.0], cfg)

    def test_shape_mismatch_rejected(self):
        cfg = StapQueueConfig()
        with pytest.raises(ValueError, match="matching"):
            simulate_stap_queue([1.0, 2.0], [1.0], cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StapQueueConfig(n_servers=0)
        with pytest.raises(ValueError):
            StapQueueConfig(mean_service_time=0)
        with pytest.raises(ValueError):
            StapQueueConfig(timeout=-1)
        with pytest.raises(ValueError):
            StapQueueConfig(boost_speedup=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(timeout=np.nan),
            dict(boost_speedup=np.nan),
            dict(boost_speedup=np.inf),
        ],
    )
    def test_config_rejects_non_finite(self, kwargs):
        with pytest.raises(ValueError):
            StapQueueConfig(**kwargs)

    def test_config_rejects_infinite_mean_service_time(self):
        # Once accepted: every response time came out inf.
        with pytest.raises(ValueError, match="mean_service_time"):
            StapQueueConfig(mean_service_time=np.inf)

    @pytest.mark.parametrize("n_servers", [2.0, np.float64(2.0), np.nan, True])
    def test_config_rejects_non_integer_servers(self, n_servers):
        # Once 2.0 failed inside the serial kernel but ran in the batched
        # one, and True the reverse.
        with pytest.raises(TypeError, match="n_servers"):
            StapQueueConfig(n_servers=n_servers)

    def test_config_accepts_numpy_integer_servers(self):
        arrivals, demands = np.arange(1.0, 6.0), np.ones(5)
        got = simulate_stap_queue(arrivals, demands, StapQueueConfig(np.int64(2)))
        want = simulate_stap_queue(arrivals, demands, StapQueueConfig(2))
        assert np.array_equal(got.completion_times, want.completion_times)

    def test_drop_warmup_validation(self):
        res = run_mm1(0.5, n=100)
        with pytest.raises(ValueError):
            res.drop_warmup(1.0)


class TestInputValidation:
    """Non-finite inputs must be rejected, not silently simulated.

    Regression: ``np.any(np.diff(arrivals) < 0)`` is False for NaN
    (comparisons with NaN are False), so a NaN arrival used to pass the
    sortedness check and quietly corrupt start/completion times.
    """

    CFG = StapQueueConfig(n_servers=1)

    def test_nan_arrival_rejected(self):
        arrivals = np.array([1.0, np.nan, 3.0])
        with pytest.raises(ValueError, match="finite"):
            simulate_stap_queue(arrivals, np.ones(3), self.CFG)

    def test_inf_arrival_rejected(self):
        arrivals = np.array([1.0, 2.0, np.inf])
        with pytest.raises(ValueError, match="finite"):
            simulate_stap_queue(arrivals, np.ones(3), self.CFG)

    def test_nan_demand_rejected(self):
        demands = np.array([1.0, np.nan, 1.0])
        with pytest.raises(ValueError, match="finite"):
            simulate_stap_queue(np.arange(3.0), demands, self.CFG)

    def test_inf_demand_rejected(self):
        demands = np.array([1.0, np.inf, 1.0])
        with pytest.raises(ValueError, match="finite"):
            simulate_stap_queue(np.arange(3.0), demands, self.CFG)

    def test_unsorted_still_rejected(self):
        arrivals = np.array([3.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="sorted"):
            simulate_stap_queue(arrivals, np.ones(3), self.CFG)

    def test_finite_sorted_accepted(self):
        res = simulate_stap_queue(np.arange(1.0, 4.0), np.ones(3), self.CFG)
        assert np.all(np.isfinite(res.completion_times))
