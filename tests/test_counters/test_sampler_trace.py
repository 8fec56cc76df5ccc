"""Tests for counter sampling over runtime segments and trace assembly."""

import numpy as np
import pytest

from repro.counters import (
    COUNTER_NAMES,
    CacheUsageTrace,
    CounterSampler,
    N_COUNTERS,
)
from repro.counters.sampler import _segment_means
from repro.testbed import (
    CollocatedService,
    CollocationConfig,
    CollocationRuntime,
    SegmentTable,
    default_machine,
)
from repro.workloads import get_workload


def _whole_run(service, sampler, rng):
    """Counters of a jacobi service over its whole observed span."""
    t0 = float(service.arrival_times[0])
    t1 = float(service.completion_times.max())
    return sampler.sample(
        service, get_workload("jacobi"), default_machine(), t0, t1, rng=rng
    )


@pytest.fixture(scope="module")
def run_result():
    cfg = CollocationConfig(
        machine=default_machine(),
        services=[
            CollocatedService(get_workload("jacobi"), timeout=1.0, utilization=0.9),
            CollocatedService(get_workload("bfs"), timeout=1.0, utilization=0.9),
        ],
    )
    return CollocationRuntime(cfg, rng=0).run(n_queries=600)


class TestSegmentMeans:
    def test_single_segment(self):
        segs = SegmentTable.from_records([(0.0, 100.0, 1, 0, False)])
        cap, busy, boost, qlen = _segment_means(segs, 0.0, 2.0, n_servers=2)
        assert cap == 100.0 and busy == 0.5 and boost == 0.0 and qlen == 0.0

    def test_weighted_average(self):
        segs = SegmentTable.from_records(
            [(0.0, 100.0, 0, 0, False), (1.0, 200.0, 2, 4, True)]
        )
        cap, busy, boost, qlen = _segment_means(segs, 0.0, 2.0, n_servers=2)
        assert cap == pytest.approx(150.0)
        assert busy == pytest.approx(0.5)
        assert boost == pytest.approx(0.5)
        assert qlen == pytest.approx(2.0)

    def test_window_starting_mid_segment(self):
        segs = SegmentTable.from_records(
            [(0.0, 100.0, 2, 0, False), (10.0, 300.0, 2, 0, True)]
        )
        cap, _, boost, _ = _segment_means(segs, 5.0, 15.0, n_servers=2)
        assert cap == pytest.approx(200.0)
        assert boost == pytest.approx(0.5)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            _segment_means(
                SegmentTable.from_records([(0.0, 1.0, 0, 0, False)]), 1.0, 1.0, 1
            )

    def test_vectorized_over_intervals(self):
        segs = SegmentTable.from_records(
            [(0.0, 100.0, 0, 0, False), (1.0, 200.0, 2, 4, True)]
        )
        means = _segment_means(segs, [0.0, 0.5, 1.0], [1.0, 1.5, 3.0], n_servers=2)
        assert means.shape == (4, 3)
        assert np.array_equal(means[0], [100.0, 150.0, 200.0])
        assert np.array_equal(means[2], [0.0, 0.5, 1.0])

    def test_fractions_capped_at_one(self):
        # Summing these pieces left to right gives 1 + 1 ulp of [0.8, 9.4).
        segs = SegmentTable.from_records(
            [(t, 1.0, 3, 0, True) for t in (5.93, 6.41, 8.53)]
        )
        _, busy, boost, _ = _segment_means(segs, 0.8, 9.4, n_servers=2)
        assert busy == 1.0 and boost == 1.0

    def test_nan_edges_rejected(self):
        segs = SegmentTable.from_records([(0.0, 1.0, 0, 0, False)])
        with pytest.raises(ValueError):
            _segment_means(segs, np.nan, 1.0, 1)
        with pytest.raises(ValueError):
            _segment_means(segs, [0.0, 1.0], [1.0, np.nan], 1)


class TestSampler:
    def test_shape_follows_rate(self, run_result):
        svc = run_result.services[0]
        spec = get_workload("jacobi")
        m = default_machine()
        s1 = CounterSampler(sampling_hz=1.0).sample(svc, spec, m, 0.0, 50.0, rng=1)
        s5 = CounterSampler(sampling_hz=0.2).sample(svc, spec, m, 0.0, 50.0, rng=1)
        assert s1.shape == (50, N_COUNTERS)
        assert s5.shape == (10, N_COUNTERS)

    def test_counters_nonnegative(self, run_result):
        mat = _whole_run(run_result.services[0], CounterSampler(), rng=2)
        assert np.all(mat >= 0)

    def test_boost_column_reflects_sta(self, run_result):
        mat = _whole_run(run_result.services[0], CounterSampler(noise=0.0), rng=3)
        boost_col = mat[:, COUNTER_NAMES.index("boost_active")]
        assert boost_col.max() > 0  # STA triggered at some point

    def test_validation(self, run_result):
        with pytest.raises(ValueError):
            CounterSampler(sampling_hz=0)
        with pytest.raises(ValueError):
            CounterSampler(noise=-1)
        svc = run_result.services[0]
        with pytest.raises(ValueError):
            CounterSampler().sample(
                svc, get_workload("jacobi"), default_machine(), 5.0, 5.0
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sampling_hz": float("inf")},
            {"sampling_hz": float("nan")},
            {"noise": float("nan")},
            {"noise": float("inf")},
        ],
    )
    def test_non_finite_settings_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            CounterSampler(**kwargs)

    @pytest.mark.parametrize(
        "t_start, t_end",
        [(float("nan"), 5.0), (0.0, float("nan")), (0.0, float("inf"))],
    )
    def test_non_finite_window_rejected(self, run_result, t_start, t_end):
        svc = run_result.services[0]
        with pytest.raises(ValueError, match="finite"):
            CounterSampler().sample(
                svc, get_workload("jacobi"), default_machine(), t_start, t_end
            )


class TestTrace:
    def _trace(self, n_ticks=20):
        a = np.arange(15 * N_COUNTERS, dtype=float).reshape(15, N_COUNTERS)
        b = np.ones((25, N_COUNTERS))
        return CacheUsageTrace.from_counters([a, b], ["w1", "w2"], n_ticks=n_ticks)

    def test_padding_and_truncation(self):
        t = self._trace(n_ticks=20)
        assert t.data.shape == (2 * N_COUNTERS, 20)
        # w1 had 15 ticks: columns 15.. are zero padding.
        assert np.all(t.data[:N_COUNTERS, 15:] == 0)
        # w2 had 25 ticks: truncated to 20, all ones.
        assert np.all(t.data[N_COUNTERS:, :] == 1)

    def test_mismatched_names_rejected(self):
        with pytest.raises(ValueError):
            CacheUsageTrace.from_counters(
                [np.zeros((5, N_COUNTERS))], ["a", "b"], n_ticks=5
            )


class TestTraceShapeChecks:
    def test_data_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            CacheUsageTrace(np.zeros(N_COUNTERS), ("w",))

    def test_rows_must_match_service_count(self):
        with pytest.raises(ValueError, match="n_services"):
            CacheUsageTrace(np.zeros((N_COUNTERS, 4)), ("a", "b"))

    def test_counter_matrices_need_every_counter(self):
        with pytest.raises(ValueError, match="29-counter"):
            CacheUsageTrace.from_counters(
                [np.zeros((5, N_COUNTERS - 1))], ["a"], n_ticks=5
            )

    def test_n_ticks_and_n_services(self):
        t = CacheUsageTrace(np.zeros((2 * N_COUNTERS, 7)), ("a", "b"))
        assert (t.n_services, t.n_ticks) == (2, 7)
