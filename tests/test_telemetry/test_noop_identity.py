"""The telemetry design contract: bit-identical outputs on or off.

Telemetry never touches an RNG and never feeds back into any
computation, so every instrumented path — the queueing kernels, the
Stage 2 fit / Stage 3 predict pipeline, the timeout search —
must produce *bit-identical* results (``np.array_equal``, no tolerance)
whether telemetry is disabled (the default) or fully enabled with queue
event tracing.  And while disabled, the subsystem must allocate no
state at all.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core import RuntimeCondition, StacModel
from repro.core.policy_search import explore_timeouts
from repro.core.profiler import Profiler, ProfilerSettings
from repro.queueing import (
    StapQueueConfig,
    simulate_stap_queue,
    simulate_stap_queue_batch,
)

PAIR = ("redis", "social")
UTILS = (0.9, 0.85)
GRID = (0.0, 1.0)
FAST = dict(learner="tree", sim_queries=500)

_RESULT_FIELDS = (
    "arrival_times",
    "start_times",
    "completion_times",
    "boosted",
    "boosted_time",
)


def _queue_inputs(C=4, n=300, seed=0):
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(0.6, size=(C, n)), axis=1)
    demands = rng.lognormal(0.0, 0.5, size=(C, n))
    configs = [
        StapQueueConfig(n_servers=2, timeout=t, boost_speedup=1.6)
        for t in (0.0, 0.5, 1.5, np.inf)
    ]
    return arrivals, demands, configs


def _assert_same_result(a, b):
    for fld in _RESULT_FIELDS:
        assert np.array_equal(getattr(a, fld), getattr(b, fld)), fld


@pytest.fixture(scope="module")
def fitted(small_dataset):
    telemetry.disable()
    return StacModel(rng=0, **FAST).fit(small_dataset)


class TestDisabledAllocatesNothing:
    def test_default_state_is_empty(self):
        assert not telemetry.enabled()
        assert telemetry.get_registry() is None
        assert telemetry.get_span_log() is None
        assert telemetry.queue_sink() is None

    def test_instrumented_run_allocates_nothing_while_disabled(self):
        arrivals, demands, configs = _queue_inputs()
        simulate_stap_queue(arrivals[0], demands[0], configs[0])
        simulate_stap_queue_batch(arrivals, demands, configs)
        assert telemetry.get_registry() is None
        assert telemetry.get_span_log() is None
        assert telemetry.queue_sink() is None

    def test_disable_drops_collected_state(self):
        telemetry.configure(trace_queue_events=True)
        telemetry.counter_inc("x")
        telemetry.disable()
        assert telemetry.get_registry() is None
        assert telemetry.get_span_log() is None
        assert telemetry.queue_sink() is None


class TestQueueKernelIdentity:
    def test_serial_kernel(self):
        arrivals, demands, configs = _queue_inputs()
        off = simulate_stap_queue(arrivals[1], demands[1], configs[1])
        telemetry.configure(trace_queue_events=True)
        on = simulate_stap_queue(arrivals[1], demands[1], configs[1])
        _assert_same_result(off, on)

    def test_batch_kernel(self):
        arrivals, demands, configs = _queue_inputs()
        off = simulate_stap_queue_batch(arrivals, demands, configs)
        telemetry.configure(trace_queue_events=True)
        on = simulate_stap_queue_batch(arrivals, demands, configs)
        _assert_same_result(off, on)
        assert telemetry.queue_sink().n_runs == len(configs)


class TestPipelineIdentity:
    def test_fit_and_predict_bit_identical(self, small_dataset):
        conditions = [
            RuntimeCondition(workloads=PAIR, utilizations=UTILS, timeouts=t)
            for t in ((0.0, 1.0), (0.5, 0.5), (np.inf, np.inf))
        ]
        assert not telemetry.enabled()
        m_off = StacModel(rng=0, **FAST).fit(small_dataset)
        p_off = m_off.predict_conditions(conditions)
        telemetry.configure(trace_queue_events=True)
        m_on = StacModel(rng=0, **FAST).fit(small_dataset)
        p_on = m_on.predict_conditions(conditions)
        for off, on in zip(p_off, p_on):
            assert off.summaries == on.summaries
            assert np.array_equal(
                off.effective_allocations, on.effective_allocations
            )
        # The run actually recorded something (the contract is "pure
        # observation", not "observes nothing").
        reg = telemetry.get_registry()
        assert reg.counter("stage3.conditions_predicted") == len(conditions)
        assert telemetry.get_span_log().by_name("stage2.fit")


class TestProfilerIdentity:
    def test_profile_bit_identical(self):
        settings = ProfilerSettings(n_queries=200, n_windows=2, trace_ticks=8)
        conditions = [
            RuntimeCondition(workloads=PAIR, utilizations=UTILS, timeouts=t)
            for t in ((0.0, 1.0), (0.5, 0.5))
        ]
        assert not telemetry.enabled()
        off = Profiler(settings=settings, rng=2).profile(conditions)
        telemetry.configure()
        on = Profiler(settings=settings, rng=2).profile(conditions)
        for name in ("X_flat", "traces", "y_ea", "y_rt_mean", "y_rt_p95"):
            assert np.array_equal(getattr(off, name), getattr(on, name)), name
        log = telemetry.get_span_log()
        assert len(log.by_name("stage1.testbed_run")) == len(conditions)
        # One span per (service, window) row, never per tick.
        assert len(log.by_name("stage1.sample_counters")) == len(on)
        assert len(log.by_name("stage1.boost_overlap")) == len(on)


class TestExploreTimeoutsIdentity:
    def test_serial_search_identical(self, fitted):
        assert not telemetry.enabled()
        combos_off, rt_off = explore_timeouts(fitted, PAIR, UTILS, GRID)
        telemetry.configure(trace_queue_events=True)
        combos_on, rt_on = explore_timeouts(fitted, PAIR, UTILS, GRID)
        assert combos_off == combos_on
        assert np.array_equal(rt_off, rt_on)
        reg = telemetry.get_registry()
        assert reg.counter("policy.combos_evaluated") == len(combos_on)
        assert telemetry.queue_sink().n_runs > 0
        spans = telemetry.get_span_log().by_name("policy.explore_timeouts")
        assert len(spans) == 1
