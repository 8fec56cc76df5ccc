"""Tests for the collocated runtime — the ground-truth simulator."""

import math

import numpy as np
import pytest

from repro.cache import SharedWayContention
from repro.testbed import (
    CollocatedService,
    CollocationConfig,
    CollocationRuntime,
    default_machine,
)
from repro.workloads import get_workload

from ..test_queueing.mmk_oracle import mmk_mean_response


def run_pair(
    names=("jacobi", "bfs"),
    timeouts=(1.5, 1.5),
    utils=(0.9, 0.9),
    n_queries=800,
    rng=0,
    **cfg_kw,
):
    cfg = CollocationConfig(
        machine=default_machine(),
        services=[
            CollocatedService(get_workload(n), timeout=t, utilization=u)
            for n, t, u in zip(names, timeouts, utils)
        ],
        **cfg_kw,
    )
    return CollocationRuntime(cfg, rng=rng).run(n_queries=n_queries)


class TestBasicInvariants:
    def test_all_queries_complete(self):
        res = run_pair(n_queries=300)
        for s in res.services:
            assert s.n_queries == 270  # 10% warmup dropped

    def test_causality(self):
        res = run_pair(n_queries=400)
        for s in res.services:
            assert np.all(s.start_times >= s.arrival_times - 1e-9)
            assert np.all(s.completion_times >= s.start_times)

    def test_server_limit_respected(self):
        res = run_pair(n_queries=400)
        k = default_machine().cores_per_service
        for s in res.services:
            probe_times = s.start_times[::25]
            for t in probe_times:
                busy = np.sum((s.start_times <= t) & (s.completion_times > t))
                assert busy <= k

    def test_reproducible(self):
        r1 = run_pair(n_queries=200, rng=5)
        r2 = run_pair(n_queries=200, rng=5)
        for a, b in zip(r1.services, r2.services):
            assert np.array_equal(a.completion_times, b.completion_times)

    def test_different_seeds_differ(self):
        r1 = run_pair(n_queries=200, rng=1)
        r2 = run_pair(n_queries=200, rng=2)
        assert not np.array_equal(
            r1.services[0].completion_times, r2.services[0].completion_times
        )

    def test_service_lookup(self):
        res = run_pair(n_queries=100)
        assert res.service("jacobi").name == "jacobi"
        with pytest.raises(KeyError):
            res.service("nope")


class TestNoStapBaseline:
    def test_matches_mmk_when_timeout_infinite(self):
        """With STA disabled and CV~service the run is close to M/G/2; for
        a deterministic-ish demand workload check against M/M/2 bounds."""
        res = run_pair(
            names=("jacobi", "bfs"),
            timeouts=(math.inf, math.inf),
            utils=(0.7, 0.7),
            n_queries=6000,
            rng=3,
        )
        jac = res.service("jacobi")
        # Arrival rate = util * k / 1.0 on the normalized clock.
        approx = mmk_mean_response(0.7 * 2, 1.0, 2)
        # M/G/2 with CV<1 is a bit faster than M/M/2; allow a band.
        assert 0.6 * approx < jac.response_times_norm.mean() < 1.15 * approx

    def test_no_boost_when_disabled(self):
        res = run_pair(timeouts=(math.inf, math.inf), n_queries=300)
        for s in res.services:
            assert s.boost_fraction == 0.0
            assert np.all(s.boosted_time == 0.0)

    def test_ea_is_inverse_gross_when_never_triggered(self):
        res = run_pair(timeouts=(math.inf, math.inf), n_queries=500)
        for s in res.services:
            assert s.effective_allocation() == pytest.approx(
                1.0 / s.gross_increase, rel=0.05
            )


class TestStapEffects:
    def test_sta_speeds_up_p95(self):
        base = run_pair(timeouts=(math.inf, math.inf), n_queries=2500, rng=7)
        sta = run_pair(timeouts=(1.5, 1.5), n_queries=2500, rng=7)
        for name in ("jacobi", "bfs"):
            p95_base = np.percentile(base.service(name).response_times_norm, 95)
            p95_sta = np.percentile(sta.service(name).response_times_norm, 95)
            assert p95_sta < p95_base

    def test_tighter_timeout_boosts_more(self):
        tight = run_pair(timeouts=(0.5, 0.5), n_queries=1200, rng=8)
        loose = run_pair(timeouts=(4.0, 4.0), n_queries=1200, rng=8)
        for name in ("jacobi", "bfs"):
            assert (
                tight.service(name).boost_fraction
                > loose.service(name).boost_fraction
            )

    def test_ea_below_one_under_contention(self):
        """Both services boosting concurrently must split shared ways, so
        EA sits below the no-contention ideal of 1."""
        res = run_pair(
            names=("redis", "spstream"), timeouts=(0.2, 0.2), utils=(0.93, 0.93),
            n_queries=2000, rng=9
        )
        for s in res.services:
            assert s.effective_allocation() < 1.0

    def test_contention_lowers_partner_ea(self):
        """A cache-hungry neighbor boosting aggressively should reduce the
        partner's effective allocation vs a quiet neighbor."""
        quiet = run_pair(
            names=("redis", "knn"), timeouts=(1.0, math.inf), n_queries=2000, rng=10
        )
        noisy = run_pair(
            names=("redis", "spstream"), timeouts=(1.0, 0.1),
            utils=(0.9, 0.95), n_queries=2000, rng=10
        )
        assert (
            noisy.service("redis").effective_allocation()
            < quiet.service("redis").effective_allocation()
        )

    def test_overdue_implies_boosted_time(self):
        res = run_pair(timeouts=(1.0, 1.0), n_queries=800, rng=11)
        s = res.services[0]
        started_overdue = s.overdue & (s.boosted_time > 0)
        # Queries marked overdue while in service must have boosted time;
        # those marked while queued may complete quickly after.
        assert started_overdue.sum() > 0


class TestSegments:
    def test_segments_time_ordered(self):
        res = run_pair(n_queries=300)
        for s in res.services:
            times = [seg[0] for seg in s.segments]
            assert all(t1 <= t2 for t1, t2 in zip(times, times[1:]))

    def test_capacity_bounds(self):
        res = run_pair(n_queries=300)
        cfg = res.config
        lo = cfg.private_bytes
        hi = cfg.private_bytes + 2 * cfg.shared_bytes
        for s in res.services:
            for _, cap, _, _, _ in s.segments:
                assert lo - 1e-6 <= cap <= hi + 1e-6

    def test_boost_segments_present_when_sta_active(self):
        res = run_pair(timeouts=(0.5, 0.5), n_queries=500, rng=12)
        s = res.services[0]
        assert any(seg[4] for seg in s.segments)

    def test_queue_length_recorded(self):
        res = run_pair(utils=(0.93, 0.93), n_queries=500, rng=13)
        s = res.services[0]
        assert max(seg[3] for seg in s.segments) > 0  # queue built up

    def test_segments_share_the_query_clock(self):
        cfg = CollocationConfig(
            machine=default_machine(),
            services=[
                CollocatedService(get_workload("redis"), timeout=0.5, utilization=0.8),
                CollocatedService(get_workload("knn"), timeout=0.5, utilization=0.8),
            ],
        )
        res = CollocationRuntime(cfg, rng=0).run(n_queries=300)
        for s in res.services:
            times = s.segments.time
            # The last snapshot follows the service's last completion, and
            # no snapshot lies past the end of the run on the same clock.
            assert times[-1] >= s.completion_times.max()
            assert times[-1] <= res.horizon
            assert np.all(np.diff(times) >= 0)


class TestWindows:
    def test_window_slices_partition(self):
        res = run_pair(n_queries=400)
        s = res.services[0]
        slices = s.window_slices(5)
        total = sum(sl.stop - sl.start for sl in slices)
        assert total == s.n_queries

    def test_window_view_consistency(self):
        res = run_pair(n_queries=400)
        s = res.services[0]
        w = s.window_view(s.window_slices(4)[1])
        assert w.n_queries == pytest.approx(s.n_queries / 4, abs=1)
        assert w.name == s.name

    def test_bad_window_count(self):
        res = run_pair(n_queries=100)
        with pytest.raises(ValueError):
            res.services[0].window_slices(0)


class TestContentionModes:
    def test_equal_split_changes_outcome(self):
        cfg = CollocationConfig(
            machine=default_machine(),
            services=[
                CollocatedService(get_workload("redis"), timeout=0.3, utilization=0.92),
                CollocatedService(get_workload("knn"), timeout=0.3, utilization=0.92),
            ],
        )
        occ = CollocationRuntime(
            cfg, contention=SharedWayContention("occupancy"), rng=4
        ).run(1500)
        eq = CollocationRuntime(
            cfg, contention=SharedWayContention("equal"), rng=4
        ).run(1500)
        # Redis has much higher fill intensity than KNN, so occupancy mode
        # gives it more shared capacity than the equal split does.
        assert (
            occ.service("redis").effective_allocation()
            > eq.service("redis").effective_allocation()
        )


class TestUnits:
    def test_response_times_are_normalized_times_in_seconds(self):
        s = run_pair(n_queries=200).services[0]
        assert s.baseline_service_time != 1.0
        assert np.array_equal(
            s.response_times, s.response_times_norm * s.baseline_service_time
        )

    def test_empty_window_reports_neutral_allocation(self):
        s = run_pair(n_queries=200).services[0]
        empty = s.window_view(slice(0, 0))
        assert empty.n_queries == 0
        assert empty.boost_fraction == 0.0
        assert empty.effective_allocation() == 1.0 / s.gross_increase


@pytest.mark.parametrize("n_queries", [0, -5])
def test_run_needs_at_least_one_query(n_queries):
    cfg = CollocationConfig(
        machine=default_machine(),
        services=[CollocatedService(get_workload("redis"), timeout=1.0)],
    )
    with pytest.raises(ValueError, match="n_queries"):
        CollocationRuntime(cfg, rng=0).run(n_queries=n_queries)


def test_poisson_arrivals_are_the_workload_process():
    """A Poisson service's arrivals are ``PoissonArrivals`` at rate
    utilization x cores, drawn from its own spawned stream."""
    from repro._util import as_rng, spawn_rngs
    from repro.workloads import PoissonArrivals

    cores = default_machine().cores_per_service
    run = run_pair(utils=(0.8, 0.6), n_queries=300, rng=3)
    streams = spawn_rngs(as_rng(3), 4)
    for i, (svc, util) in enumerate(zip(run.services, (0.8, 0.6))):
        want = PoissonArrivals(util * cores).sample(300, rng=streams[2 * i])
        # run_pair keeps the default 10% warmup out of the recorded queries.
        assert np.array_equal(svc.arrival_times, want[30:])
