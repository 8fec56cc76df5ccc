"""Stage 3: G/G/k queue with short-term-allocation service-rate switching.

Implements the discrete event simulator of Section 3.3.  A query's
time in system is compared to the response-time warning (timeout x
expected service time); once exceeded, the *remaining* execution runs at
the boosted rate implied by the policy's effective cache allocation:

    boosted_rate = effective_allocation * (l_a' / l_a)

(inverting Eq. 3: EA times the gross allocation increase is the speedup).
Because the warning instant is known at dispatch, each query's completion
time has a closed form, so the simulator advances query-by-query rather
than by fixed steps — the "jumps multiple steps at a time" optimization
the paper describes.

Two kernels evaluate that closed form.  :func:`simulate_stap_queue`
runs one condition as a scalar loop over Python floats (a sorted pair
of server free times at k = 2, a ``heapq`` of floats otherwise);
:func:`simulate_stap_queue_batch` runs C conditions at once, with the
per-condition state in NumPy rows.  The two agree bit for bit, so
:meth:`repro.core.rt_model.ResponseTimeModel.simulate_many` picks one by
speed alone: the scalar kernel per condition for few conditions, the
batched kernel from ``_MIN_BATCH_CONDITIONS`` distinct conditions up.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro._util.validation import check_count


@dataclass(frozen=True)
class StapQueueConfig:
    """Configuration of one service's queue under a short-term policy.

    Parameters
    ----------
    n_servers:
        Parallel executors (paper: 2 cores per service).
    mean_service_time:
        Expected service time at the default allocation; the timeout and
        demands are expressed relative to it.
    timeout:
        Response-time warning relative to ``mean_service_time`` (Eq. 4).
        ``np.inf`` disables short-term allocation.
    boost_speedup:
        Processing-rate multiplier while boosted (EA x l_a'/l_a).  1.0
        means boosting does not help.
    """

    n_servers: int = 2
    mean_service_time: float = 1.0
    timeout: float = np.inf
    boost_speedup: float = 1.0

    def __post_init__(self) -> None:
        check_count("n_servers", self.n_servers, 1)
        if not 0 < self.mean_service_time < np.inf:
            raise ValueError(
                "mean_service_time must be finite and > 0, got "
                f"{self.mean_service_time!r}"
            )
        # Written so NaN fails too (every comparison with NaN is False);
        # timeout=inf stays legal.
        if not self.timeout >= 0:
            raise ValueError(f"timeout must be >= 0, got {self.timeout}")
        if not 0 < self.boost_speedup < np.inf:
            raise ValueError(
                f"boost_speedup must be finite and > 0, got {self.boost_speedup}"
            )

    @property
    def warning_delay(self) -> float:
        """Absolute response-time warning delay."""
        return self.timeout * self.mean_service_time


@dataclass
class QueueResult:
    """Per-query outcomes of one simulated run."""

    arrival_times: np.ndarray
    start_times: np.ndarray
    completion_times: np.ndarray
    boosted: np.ndarray  # bool: did short-term allocation trigger?
    boosted_time: np.ndarray  # seconds each query spent boosted

    @property
    def response_times(self) -> np.ndarray:
        return self.completion_times - self.arrival_times

    @property
    def wait_times(self) -> np.ndarray:
        return self.start_times - self.arrival_times

    @property
    def boost_fraction(self) -> float:
        """Fraction of queries that triggered short-term allocation."""
        return float(self.boosted.mean()) if self.boosted.size else 0.0

    @property
    def boost_busy_time(self) -> float:
        """Total time spent executing under short-term allocation."""
        return float(self.boosted_time.sum())

    def drop_warmup(self, fraction: float) -> "QueueResult":
        """Discard the first ``fraction`` of queries (transient warmup)."""
        if not 0 <= fraction < 1:
            raise ValueError("fraction must be in [0, 1)")
        k = int(len(self.arrival_times) * fraction)
        return QueueResult(
            self.arrival_times[k:],
            self.start_times[k:],
            self.completion_times[k:],
            self.boosted[k:],
            self.boosted_time[k:],
        )


@dataclass
class BatchQueueResult:
    """Per-query outcomes of ``C`` simultaneously simulated conditions.

    Every array is ``(C, n)``; row ``c`` is bit-identical to the
    corresponding :class:`QueueResult` of a serial
    :func:`simulate_stap_queue` run under ``configs[c]``.
    """

    arrival_times: np.ndarray
    start_times: np.ndarray
    completion_times: np.ndarray
    boosted: np.ndarray  # bool: did short-term allocation trigger?
    boosted_time: np.ndarray  # seconds each query spent boosted

    @property
    def n_conditions(self) -> int:
        return self.arrival_times.shape[0]

    @property
    def response_times(self) -> np.ndarray:
        return self.completion_times - self.arrival_times

    @property
    def wait_times(self) -> np.ndarray:
        return self.start_times - self.arrival_times

    @property
    def boost_fractions(self) -> np.ndarray:
        """Per-condition fraction of queries that triggered boosting."""
        if self.boosted.shape[1] == 0:
            return np.zeros(self.n_conditions)
        return self.boosted.mean(axis=1)

    def condition(self, c: int) -> QueueResult:
        """The serial-equivalent :class:`QueueResult` of condition ``c``.

        Rows of the C-contiguous batch arrays are themselves contiguous,
        so downstream reductions (means, percentiles) see exactly the
        memory layout a serial run would have produced.
        """
        return QueueResult(
            arrival_times=self.arrival_times[c],
            start_times=self.start_times[c],
            completion_times=self.completion_times[c],
            boosted=self.boosted[c],
            boosted_time=self.boosted_time[c],
        )

    def drop_warmup(self, fraction: float) -> "BatchQueueResult":
        """Discard the first ``fraction`` of queries in every condition."""
        if not 0 <= fraction < 1:
            raise ValueError("fraction must be in [0, 1)")
        k = int(self.arrival_times.shape[1] * fraction)
        return BatchQueueResult(
            np.ascontiguousarray(self.arrival_times[:, k:]),
            np.ascontiguousarray(self.start_times[:, k:]),
            np.ascontiguousarray(self.completion_times[:, k:]),
            np.ascontiguousarray(self.boosted[:, k:]),
            np.ascontiguousarray(self.boosted_time[:, k:]),
        )


def simulate_stap_queue(
    arrival_times,
    demands,
    config: StapQueueConfig,
    event_sink=None,
) -> QueueResult:
    """FCFS G/G/k simulation under a short-term allocation policy.

    Parameters
    ----------
    arrival_times:
        Sorted absolute arrival timestamps.
    demands:
        Per-query work multipliers (mean 1); actual default-rate work is
        ``demand * mean_service_time``.
    config:
        Queue and policy configuration.
    event_sink:
        Optional :class:`~repro.telemetry.QueueEventSink` fed the run's
        arrival / service-start / STAP-boost-trigger / departure events
        (derived from the finished result arrays — the simulation loop
        itself is untouched).  When omitted, the telemetry subsystem's
        active sink (``--trace-queue-events``) is used if one exists.
    """
    # Telemetry: one enabled-flag check; never touches RNG or results.
    _tel = telemetry.enabled()
    _t0 = time.perf_counter() if _tel else 0.0
    arrivals = np.ascontiguousarray(arrival_times, dtype=float)
    demand = np.ascontiguousarray(demands, dtype=float)
    if arrivals.shape != demand.shape or arrivals.ndim != 1:
        raise ValueError("arrival_times and demands must be matching 1-D arrays")
    # NaN/inf would sail through the sortedness check below (comparisons
    # with NaN are False) and silently corrupt start/completion times.
    if not np.all(np.isfinite(arrivals)):
        raise ValueError("arrival_times must be finite (no NaN/inf)")
    if not np.all(np.isfinite(demand)):
        raise ValueError("demands must be finite (no NaN/inf)")
    if arrivals.size and np.any(np.diff(arrivals) < 0):
        raise ValueError("arrival_times must be sorted")
    n = arrivals.shape[0]
    works = demand * config.mean_service_time
    boost = config.boost_speedup
    # boost == 1 never switches rates, whatever the warning instant, so
    # an infinite warning delay takes the no-boost branch for it.
    warn_delay = np.inf if boost == 1.0 else config.warning_delay

    starts = np.empty(n)
    completions = np.empty(n)
    boosted_time = np.empty(n)
    # Python floats in, memoryview writes out: no NumPy scalar per query,
    # and no per-query Python lists held until the end.
    start_out = memoryview(starts)
    completion_out = memoryview(completions)
    boosted_out = memoryview(boosted_time)

    # Each iteration dispatches to the earliest-free server ``f`` and
    # evaluates the closed-form service time with a rate switch at
    # ``warn = a + warn_delay`` (work in seconds at the default rate):
    #
    #     t0 = a if f < a else f
    #     t1 = t0 + work                    if warn >= t0 + work
    #     t1 = t0 + work / boost            if warn <= t0
    #     t1 = t0 + (d + (work - d) / boost)    with d = warn - t0
    #
    # The boosted time is 0.0, the whole duration, or the boosted
    # remainder.  The step is inlined in both loops below: a helper's
    # call frame would cost a large share of each iteration.
    queries = zip(range(n), arrivals.tolist(), works.tolist())
    if config.n_servers == 2:
        # Free times kept sorted, f0 <= f1: dispatch reads f0, and
        # re-insertion keeps f1 at the front on a tie, as a heap would.
        # The paper's per-service core count, so worth its own loop: with
        # the heapq loop below at k = 2 instead, perfbench ``whatif``
        # ``ops_per_s`` fell from a median 31.2 to 26.0, slower in 10 of
        # 10 alternating pairs (seed 0, 15 s runs, 2-CPU x86-64 container).
        f0 = f1 = 0.0
        for i, a, work in queries:
            t0 = a if f0 < a else f0
            warn = a + warn_delay
            t1 = t0 + work
            if warn >= t1:
                btime = 0.0
            elif warn <= t0:
                btime = work / boost
                t1 = t0 + btime
            else:
                done = warn - t0
                btime = (work - done) / boost
                t1 = t0 + (done + btime)
            start_out[i] = t0
            completion_out[i] = t1
            boosted_out[i] = btime
            if t1 < f1:
                f0 = t1
            else:
                f0, f1 = f1, t1
    else:
        # Min-heap of server free times: FCFS dispatch to the earliest-free server.
        free_at = [0.0] * config.n_servers
        pop, push = heapq.heappop, heapq.heappush
        for i, a, work in queries:
            f = pop(free_at)
            t0 = a if f < a else f
            warn = a + warn_delay
            t1 = t0 + work
            if warn >= t1:
                btime = 0.0
            elif warn <= t0:
                btime = work / boost
                t1 = t0 + btime
            else:
                done = warn - t0
                btime = (work - done) / boost
                t1 = t0 + (done + btime)
            start_out[i] = t0
            completion_out[i] = t1
            boosted_out[i] = btime
            push(free_at, t1)

    result = QueueResult(
        arrival_times=arrivals,
        start_times=starts,
        completion_times=completions,
        boosted=boosted_time > 0.0,
        boosted_time=boosted_time,
    )
    if _tel:
        telemetry.counter_inc("queue.runs")
        telemetry.counter_inc("queue.queries_simulated", n)
        telemetry.histogram_observe(
            "queue.simulate_seconds", time.perf_counter() - _t0
        )
        if event_sink is None:
            event_sink = telemetry.queue_sink()
    if event_sink is not None:
        event_sink.record_run(result, config)
    return result


# The per-query service step shared by the two loop specializations
# below (inlined in each: at C ~ 25 the loops are ufunc-dispatch-bound,
# so the call frame and module-global lookups of a helper would cost
# ~15% of the whole kernel).  Each iteration evaluates, elementwise over
# conditions, the serial kernel's closed-form duration:
#
#     thr  = t0 + work
#     done = max(warn - t0, 0)          # default-rate work pre-warning
#     done = work         where warn >= thr   # no-boost branch
#     rem  = (work - done) / boost      # boosted-rate remainder
#     t1   = t0 + (done + rem)
#
# The no-boost *selector* is the serial one verbatim — ``warn >= t0 +
# work`` on the identical floating-point intermediates — so branch
# selection, and therefore every output bit, matches a per-condition
# serial run even where rounding puts ``warn`` within one ulp of the
# branch boundary.  The boosted-from-the-start branch needs no mask:
# ``warn <= t0`` implies ``fl(warn - t0) <= 0`` exactly (IEEE
# subtraction preserves sign), so clamping ``done`` at zero selects it
# bit-identically.  ``boost == 1`` conditions get ``warn = inf``, as in
# the serial kernel, which lands them in the no-boost branch.


def _batch_loop_k2(arr_t, works_t, warn_t, boost, starts_t, comp_t, btime_t):
    """Two-server inner loop (the paper's per-service core count).

    Server free times are kept sorted (``f0 <= f1``) so dispatch is a
    read of ``f0`` and re-insertion is one ``minimum``/``maximum`` pair —
    no per-condition heap, no argmin.
    """
    n_conditions = boost.shape[0]
    f0 = np.zeros(n_conditions)
    f1 = np.zeros(n_conditions)
    done = np.empty(n_conditions)
    thr = np.empty(n_conditions)
    m1 = np.empty(n_conditions, dtype=bool)
    zeros = np.zeros(n_conditions)
    add, sub, div = np.add, np.subtract, np.divide
    vmax, vmin, ge, put = np.maximum, np.minimum, np.greater_equal, np.putmask
    for a, work, warn, t0, t1, rem in zip(
        arr_t, works_t, warn_t, starts_t, comp_t, btime_t
    ):
        vmax(a, f0, out=t0)
        add(t0, work, out=thr)
        sub(warn, t0, out=done)
        vmax(done, zeros, out=done)
        ge(warn, thr, out=m1)
        put(done, m1, work)
        sub(work, done, out=rem)
        div(rem, boost, out=rem)
        add(done, rem, out=done)
        add(t0, done, out=t1)
        vmin(f1, t1, out=f0)
        vmax(f1, t1, out=f1)


def _batch_loop_general(
    arr_t, works_t, warn_t, boost, starts_t, comp_t, btime_t, configs
):
    """General inner loop: (C, k_max) free-time matrix with argmin
    dispatch; conditions with fewer servers pad with never-free inf
    slots that cannot win the argmin."""
    n_conditions = boost.shape[0]
    k_max = max(c.n_servers for c in configs)
    free = np.zeros((n_conditions, k_max))
    for c, cfg in enumerate(configs):
        free[c, cfg.n_servers :] = np.inf
    rows = np.arange(n_conditions)
    done = np.empty(n_conditions)
    thr = np.empty(n_conditions)
    m1 = np.empty(n_conditions, dtype=bool)
    zeros = np.zeros(n_conditions)
    add, sub, div, argmin = np.add, np.subtract, np.divide, np.argmin
    vmax, ge, put = np.maximum, np.greater_equal, np.putmask
    for a, work, warn, t0, t1, rem in zip(
        arr_t, works_t, warn_t, starts_t, comp_t, btime_t
    ):
        j = argmin(free, axis=1)
        vmax(a, free[rows, j], out=t0)
        add(t0, work, out=thr)
        sub(warn, t0, out=done)
        vmax(done, zeros, out=done)
        ge(warn, thr, out=m1)
        put(done, m1, work)
        sub(work, done, out=rem)
        div(rem, boost, out=rem)
        add(done, rem, out=done)
        add(t0, done, out=t1)
        free[rows, j] = t1


def _as_condition_rows(name: str, values, n_conditions: int) -> np.ndarray:
    """Coerce ``(n,)`` broadcast or ``(C, n)`` per-condition input."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = np.broadcast_to(arr, (n_conditions,) + arr.shape)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 1-D or 2-D array, got ndim={arr.ndim}")
    if arr.shape[0] != n_conditions:
        raise ValueError(
            f"{name} has {arr.shape[0]} condition rows, expected {n_conditions}"
        )
    return np.ascontiguousarray(arr)


def simulate_stap_queue_batch(
    arrival_times,
    demands,
    configs,
    event_sink=None,
) -> BatchQueueResult:
    """FCFS G/G/k simulation of ``C`` conditions simultaneously.

    One Python loop over the ``n`` queries with all per-condition state
    held in ``(C,)`` and ``(C, k)`` arrays: each iteration dispatches one
    query *per condition* to that condition's earliest-free server
    (``np.argmin`` along the server axis replaces the serial kernel's
    per-condition free-time heap).  The arithmetic — ``max(a, min(free))``
    dispatch and the closed-form mid-execution rate switch — is the
    serial kernel's, applied elementwise, so every condition row is
    **bit-identical** (``np.array_equal``) to a serial
    :func:`simulate_stap_queue` run under the same config.

    Parameters
    ----------
    arrival_times:
        Sorted absolute arrival timestamps: ``(n,)`` to broadcast one
        arrival process across all conditions, or ``(C, n)`` with one
        row per condition (each row sorted).
    demands:
        Per-query work multipliers, ``(n,)`` broadcast or ``(C, n)``.
    configs:
        One :class:`StapQueueConfig` per condition.  Server counts may
        differ between conditions; the state matrix is padded to the
        largest ``n_servers`` with never-free (``inf``) slots.
    event_sink:
        Optional :class:`~repro.telemetry.QueueEventSink`; every
        condition row is recorded as its own run (events derived from
        the finished result arrays, the kernel loop is untouched).
        Defaults to the telemetry subsystem's active sink, if any.
    """
    # Telemetry: one enabled-flag check; never touches RNG or results.
    _tel = telemetry.enabled()
    _t0 = time.perf_counter() if _tel else 0.0
    configs = list(configs)
    n_conditions = len(configs)
    if n_conditions == 0:
        raise ValueError("configs must not be empty")
    for cfg in configs:
        if not isinstance(cfg, StapQueueConfig):
            raise TypeError(f"configs must be StapQueueConfig, got {type(cfg)!r}")
    arrivals = _as_condition_rows("arrival_times", arrival_times, n_conditions)
    demand = _as_condition_rows("demands", demands, n_conditions)
    if arrivals.shape != demand.shape:
        raise ValueError(
            "arrival_times and demands must have matching shapes, got "
            f"{arrivals.shape} vs {demand.shape}"
        )
    if not np.all(np.isfinite(arrivals)):
        raise ValueError("arrival_times must be finite (no NaN/inf)")
    if not np.all(np.isfinite(demand)):
        raise ValueError("demands must be finite (no NaN/inf)")
    if arrivals.shape[1] and np.any(np.diff(arrivals, axis=1) < 0):
        raise ValueError("arrival_times must be sorted within each condition")
    n = arrivals.shape[1]

    mean_service = np.array([c.mean_service_time for c in configs])
    warn_delay = np.array([c.warning_delay for c in configs])
    boost = np.array([c.boost_speedup for c in configs])
    # boost == 1 conditions never switch rates whatever the warning
    # instant, so an infinite warning delay is bit-identical for them
    # (the serial kernel does the same).
    warn_delay = np.where(boost == 1.0, np.inf, warn_delay)

    # Query-major (n, C) layout: the per-query inner loop then works on
    # contiguous rows, and each output row is written in place by the
    # ufunc chain (out=) with no per-query temporaries.
    arr_t = np.ascontiguousarray(arrivals.T)
    works_t = demand.T * mean_service
    warn_t = arr_t + warn_delay
    starts_t = np.empty((n, n_conditions))
    comp_t = np.empty((n, n_conditions))
    btime_t = np.empty((n, n_conditions))

    server_counts = {cfg.n_servers for cfg in configs}
    uniform_k = server_counts.pop() if len(server_counts) == 1 else None
    if n:
        loop_args = (arr_t, works_t, warn_t, boost, starts_t, comp_t, btime_t)
        if uniform_k == 2:
            _batch_loop_k2(*loop_args)
        else:
            _batch_loop_general(*loop_args, configs)

    boosted_time = np.ascontiguousarray(btime_t.T)
    result = BatchQueueResult(
        arrival_times=arrivals,
        start_times=np.ascontiguousarray(starts_t.T),
        completion_times=np.ascontiguousarray(comp_t.T),
        boosted=boosted_time > 0.0,
        boosted_time=boosted_time,
    )
    if _tel:
        telemetry.counter_inc("queue.batch_runs")
        telemetry.counter_inc("queue.batch_conditions", n_conditions)
        telemetry.counter_inc("queue.queries_simulated", n * n_conditions)
        telemetry.histogram_observe(
            "queue.simulate_batch_seconds", time.perf_counter() - _t0
        )
        if event_sink is None:
            event_sink = telemetry.queue_sink()
    if event_sink is not None:
        event_sink.record_batch(result, configs)
    return result
