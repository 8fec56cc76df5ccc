"""Tests for the simulator event-trace sink."""

import numpy as np
import pytest

from repro import telemetry
from repro.queueing import (
    StapQueueConfig,
    simulate_stap_queue,
    simulate_stap_queue_batch,
)
from repro.telemetry.events import (
    EVENT_TYPES,
    QueueEventSink,
    read_events_jsonl,
)


def _small_run(seed=0, n=50, timeout=0.5, boost=1.8):
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(0.8, size=n))
    demands = rng.exponential(1.0, size=n)
    cfg = StapQueueConfig(
        n_servers=2, mean_service_time=1.0, timeout=timeout, boost_speedup=boost
    )
    return arrivals, demands, cfg


class TestRecordRun:
    def test_event_counts_and_types(self):
        arrivals, demands, cfg = _small_run()
        res = simulate_stap_queue(arrivals, demands, cfg)
        sink = QueueEventSink()
        run = sink.record_run(res, cfg)
        assert run == 0
        n_boosted = int(res.boosted.sum())
        assert sink.n_events == 3 * len(arrivals) + n_boosted
        assert {e["type"] for e in sink.events()} <= set(EVENT_TYPES)

    def test_event_times_match_result_arrays(self):
        arrivals, demands, cfg = _small_run(seed=3)
        res = simulate_stap_queue(arrivals, demands, cfg)
        sink = QueueEventSink()
        sink.record_run(res, cfg)
        by_type = {t: {} for t in EVENT_TYPES}
        for e in sink.events():
            by_type[e["type"]][e["query"]] = e["t"]
        for q in range(len(arrivals)):
            assert by_type["arrival"][q] == res.arrival_times[q]
            assert by_type["service_start"][q] == res.start_times[q]
            assert by_type["departure"][q] == res.completion_times[q]

    def test_boost_trigger_placement(self):
        arrivals, demands, cfg = _small_run(seed=5)
        res = simulate_stap_queue(arrivals, demands, cfg)
        assert res.boosted.any() and not res.boosted.all()
        sink = QueueEventSink()
        sink.record_run(res, cfg)
        triggers = {
            e["query"]: e["t"]
            for e in sink.events()
            if e["type"] == "stap_boost_trigger"
        }
        assert set(triggers) == set(np.nonzero(res.boosted)[0])
        for q, t in triggers.items():
            expect = max(
                res.start_times[q], res.arrival_times[q] + cfg.warning_delay
            )
            assert t == pytest.approx(expect)
            # The trigger falls inside the query's service interval.
            assert res.start_times[q] <= t <= res.completion_times[q]

    def test_timeline_is_ordered(self):
        arrivals, demands, cfg = _small_run(seed=7)
        res = simulate_stap_queue(arrivals, demands, cfg)
        sink = QueueEventSink()
        sink.record_run(res, cfg)
        q = int(np.nonzero(res.boosted)[0][0])
        timeline = sink.timeline(0, q)
        names = [t[0] for t in timeline]
        times = [t[1] for t in timeline]
        assert names[0] == "arrival" and names[-1] == "departure"
        assert "stap_boost_trigger" in names
        assert times == sorted(times)

    def test_labels_ride_along(self):
        arrivals, demands, cfg = _small_run()
        res = simulate_stap_queue(arrivals, demands, cfg)
        sink = QueueEventSink()
        sink.record_run(res, cfg, label="combo-3")
        assert all(e["label"] == "combo-3" for e in sink.events())
        assert sink.run_summary()[0]["label"] == "combo-3"


class TestRecordBatch:
    def test_batch_rows_match_serial_runs(self):
        rng = np.random.default_rng(11)
        C, n = 3, 40
        arrivals = np.cumsum(rng.exponential(0.6, size=(C, n)), axis=1)
        demands = rng.exponential(1.0, size=(C, n))
        configs = [
            StapQueueConfig(n_servers=2, timeout=t, boost_speedup=1.5)
            for t in (0.0, 0.75, np.inf)
        ]
        batch = simulate_stap_queue_batch(arrivals, demands, configs)
        batch_sink, serial_sink = QueueEventSink(), QueueEventSink()
        runs = batch_sink.record_batch(batch, configs)
        assert runs == [0, 1, 2]
        for c, cfg in enumerate(configs):
            serial_sink.record_run(
                simulate_stap_queue(arrivals[c], demands[c], cfg), cfg
            )
        assert batch_sink.events() == serial_sink.events()


class TestAggregation:
    def test_jsonl_round_trip(self, tmp_path):
        arrivals, demands, cfg = _small_run(n=12)
        res = simulate_stap_queue(arrivals, demands, cfg)
        sink = QueueEventSink()
        sink.record_run(res, cfg)
        path = tmp_path / "events.jsonl"
        n = sink.write_jsonl(path)
        assert n == sink.n_events
        assert read_events_jsonl(path) == sink.events()


class TestSimulatorIntegration:
    def test_active_sink_fed_automatically(self):
        telemetry.configure(trace_queue_events=True)
        arrivals, demands, cfg = _small_run(n=20)
        simulate_stap_queue(arrivals, demands, cfg)
        sink = telemetry.queue_sink()
        assert sink.n_runs == 1
        assert sink.n_events >= 3 * 20

    def test_explicit_sink_overrides_global(self):
        telemetry.configure(trace_queue_events=True)
        mine = QueueEventSink()
        arrivals, demands, cfg = _small_run(n=15)
        simulate_stap_queue(arrivals, demands, cfg, event_sink=mine)
        assert mine.n_runs == 1
        assert telemetry.queue_sink().n_runs == 0

    def test_no_sink_without_trace_flag(self):
        telemetry.configure(trace_queue_events=False)
        arrivals, demands, cfg = _small_run(n=15)
        simulate_stap_queue(arrivals, demands, cfg)
        assert telemetry.queue_sink() is None
        # but the metrics still land
        reg = telemetry.get_registry()
        assert reg.counter("queue.runs") == 1.0
        assert reg.counter("queue.queries_simulated") == 15.0
