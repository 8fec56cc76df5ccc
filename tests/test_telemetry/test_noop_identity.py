"""The telemetry design contract: bit-identical outputs on or off.

Telemetry never touches an RNG and never feeds back into any
computation, so every instrumented path — the queueing kernels, the
Stage 2 fit / Stage 3 predict pipeline, the timeout search —
must produce *bit-identical* results (``np.array_equal``, no tolerance)
whether telemetry is disabled (the default) or enabled.  And while
disabled, the subsystem must allocate no state at all.
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


def _assert_no_state():
    """Every slot of the process-wide telemetry state is empty."""
    state = telemetry._STATE
    assert all(getattr(state, slot) is None for slot in state.__slots__)


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
        _assert_no_state()

    def test_instrumented_run_allocates_nothing_while_disabled(self):
        arrivals, demands, configs = _queue_inputs()
        simulate_stap_queue(arrivals[0], demands[0], configs[0])
        simulate_stap_queue_batch(arrivals, demands, configs)
        assert telemetry.get_registry() is None
        assert telemetry.get_span_log() is None
        _assert_no_state()

    def test_disable_drops_collected_state(self):
        telemetry.configure()
        telemetry.counter_inc("x")
        telemetry.disable()
        assert telemetry.get_registry() is None
        assert telemetry.get_span_log() is None
        _assert_no_state()


class TestTwoPrimitives:
    """Telemetry is the metrics registry and spans; there is no queue
    event trace to switch on or to feed."""

    def test_configure_has_no_event_option(self):
        with pytest.raises(TypeError):
            telemetry.configure(trace_queue_events=True)
        _assert_no_state()

    @pytest.mark.parametrize("batched", [False, True])
    def test_kernels_take_no_event_sink(self, batched):
        arrivals, demands, configs = _queue_inputs()
        with pytest.raises(TypeError):
            if batched:
                simulate_stap_queue_batch(arrivals, demands, configs, None)
            else:
                simulate_stap_queue(arrivals[0], demands[0], configs[0], None)


class TestQueueKernelIdentity:
    def test_serial_kernel(self):
        arrivals, demands, configs = _queue_inputs()
        off = simulate_stap_queue(arrivals[1], demands[1], configs[1])
        telemetry.configure()
        on = simulate_stap_queue(arrivals[1], demands[1], configs[1])
        _assert_same_result(off, on)
        # The run is observed through its counters and its duration histogram.
        reg = telemetry.get_registry()
        assert reg.counter("queue.runs") == 1
        assert reg.counter("queue.queries_simulated") == arrivals.shape[1]
        assert reg.counter("queue.batch_runs") == 0
        assert reg.histogram("queue.simulate_seconds").count == 1

    def test_batch_kernel(self):
        arrivals, demands, configs = _queue_inputs()
        off = simulate_stap_queue_batch(arrivals, demands, configs)
        telemetry.configure()
        on = simulate_stap_queue_batch(arrivals, demands, configs)
        _assert_same_result(off, on)
        reg = telemetry.get_registry()
        assert reg.counter("queue.batch_conditions") == len(configs)
        assert reg.counter("queue.batch_runs") == 1
        assert reg.counter("queue.queries_simulated") == arrivals.size
        assert reg.counter("queue.runs") == 0
        assert reg.histogram("queue.simulate_batch_seconds").count == 1


class TestPipelineIdentity:
    def test_fit_and_predict_bit_identical(self, small_dataset):
        conditions = [
            RuntimeCondition(workloads=PAIR, utilizations=UTILS, timeouts=t)
            for t in ((0.0, 1.0), (0.5, 0.5), (np.inf, np.inf))
        ]
        assert not telemetry.enabled()
        m_off = StacModel(rng=0, **FAST).fit(small_dataset)
        p_off = m_off.predict_conditions(conditions)
        telemetry.configure()
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


class TestFixedPointObservability:
    """Each fixed-point round records its phases as child spans: every
    round simulates and builds nominal traces, and every round after the
    first starts with an EA predict, so the loop ends on a simulate.
    Each EA update leaves the largest EA change in a gauge."""

    CONDITIONS = [
        RuntimeCondition(workloads=PAIR, utilizations=UTILS, timeouts=(0.0, 1.0)),
        RuntimeCondition(
            workloads=("redis", "knn", "jacobi"),
            utilizations=(0.8, 0.6, 0.7),
            timeouts=(0.5, np.inf, 0.0),
        ),
    ]

    @pytest.mark.parametrize("n_iterations", [1, 2, 3])
    def test_round_spans_and_residual_gauge(self, fitted, n_iterations):
        fitted.n_iterations = n_iterations
        try:
            off = fitted.predict_conditions(self.CONDITIONS)
            telemetry.configure()
            on = fitted.predict_conditions(self.CONDITIONS)
            residual = telemetry.get_registry().gauge(
                "stage3.fixed_point.ea_residual"
            )
            log = telemetry.get_span_log()
            telemetry.disable()
            # The EAs the last simulate's predecessor ran at.
            if n_iterations > 1:
                fitted.n_iterations = n_iterations - 1
                before = [
                    p.effective_allocations
                    for p in fitted.predict_conditions(self.CONDITIONS)
                ]
        finally:
            fitted.n_iterations = 2
        for a, b in zip(off, on):
            assert a.summaries == b.summaries
            for name in ("effective_allocations", "boost_fractions", "X_flat", "traces"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
        rounds = log.by_name("stage3.fixed_point.round")
        assert len(rounds) == n_iterations
        for phase in ("simulate", "nominal_trace"):
            spans = log.by_name(f"stage3.fixed_point.{phase}")
            assert len(spans) == n_iterations, phase
            assert {s.parent_id for s in spans} == {r.id for r in rounds}, phase
        predicts = log.by_name("stage3.fixed_point.ea_predict")
        assert len(predicts) == n_iterations - 1
        assert {s.parent_id for s in predicts} == {
            r.id for r in rounds if r.attrs["round"] > 0
        }
        if n_iterations == 1:
            # No EA update: the first-principles EAs were simulated.
            assert residual is None
            for p, cfg in zip(on, map(fitted._layout, self.CONDITIONS)):
                grosses = [cfg.gross_increase(i) for i in range(cfg.n_services)]
                assert np.array_equal(
                    p.effective_allocations, fitted._init_eas(cfg, grosses)
                )
        else:
            assert residual == max(
                float(np.max(np.abs(p.effective_allocations - eas)))
                for p, eas in zip(on, before)
            )


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
        telemetry.configure()
        combos_on, rt_on = explore_timeouts(fitted, PAIR, UTILS, GRID)
        assert combos_off == combos_on
        assert np.array_equal(rt_off, rt_on)
        reg = telemetry.get_registry()
        assert reg.counter("policy.combos_evaluated") == len(combos_on)
        assert reg.counter("queue.runs") + reg.counter("queue.batch_runs") > 0
        spans = telemetry.get_span_log().by_name("policy.explore_timeouts")
        assert len(spans) == 1
