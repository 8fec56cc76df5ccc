"""Tests for the metrics registry: counters, gauges and histograms."""

import math
import pickle
import threading

import pytest

from repro.telemetry.registry import (
    DEFAULT_TIME_EDGES,
    Histogram,
    MetricsRegistry,
)


class TestHistogram:
    def test_bucketing_against_edges(self):
        h = Histogram(edges=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.observe(v)
        # <=1: {0.5, 1.0}; <=2: {1.5}; <=4: {3.0}; overflow: {100.0}
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(106.0)
        assert h.min == 0.5 and h.max == 100.0
        assert h.mean == pytest.approx(106.0 / 5)

    def test_empty_mean_is_nan(self):
        assert math.isnan(Histogram().mean)

    def test_edge_validation(self):
        with pytest.raises(ValueError):
            Histogram(edges=())
        with pytest.raises(ValueError):
            Histogram(edges=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(edges=(2.0, 1.0))


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.counter_inc("x")
        reg.counter_inc("x", 4.0)
        assert reg.counter("x") == 5.0
        assert reg.counter("missing") == 0.0

    def test_gauges_keep_last(self):
        reg = MetricsRegistry()
        reg.gauge_set("g", 1.0)
        reg.gauge_set("g", 2.5)
        assert reg.gauge("g") == 2.5
        assert reg.gauge("missing") is None

    def test_histogram_defaults_to_time_edges(self):
        reg = MetricsRegistry()
        reg.histogram_observe("h", 0.02)
        assert reg.histogram("h").edges == DEFAULT_TIME_EDGES

    def test_histogram_custom_edges_fixed_at_creation(self):
        reg = MetricsRegistry()
        reg.histogram_observe("h", 1.5, edges=(1.0, 2.0))
        reg.histogram_observe("h", 0.5)  # edges ignored after creation
        assert reg.histogram("h").counts == [1, 1, 0]

    def test_snapshot_is_picklable_and_detached(self):
        reg = MetricsRegistry()
        reg.counter_inc("c", 2.0)
        reg.gauge_set("g", 1.0)
        reg.histogram_observe("h", 0.5, edges=(1.0,))
        snap = pickle.loads(pickle.dumps(reg.snapshot()))
        reg.counter_inc("c")
        assert snap["counters"]["c"] == 2.0
        assert snap["gauges"]["g"] == 1.0
        assert snap["histograms"]["h"]["counts"] == [1, 0]

    def test_thread_safety_under_contention(self):
        reg = MetricsRegistry()

        def work():
            for _ in range(1000):
                reg.counter_inc("n")
                reg.histogram_observe("h", 0.5, edges=(1.0,))

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("n") == 4000.0
        assert reg.histogram("h").count == 4000
