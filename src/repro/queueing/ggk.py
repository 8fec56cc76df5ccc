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

Two kernels evaluate that closed form, bit for bit alike.
:func:`simulate_stap_queue` runs one condition as a scalar loop over
Python floats (a sorted pair of server free times at k = 2, a ``heapq``
of floats otherwise).  :func:`simulate_stap_queue_batch` runs C
conditions at once by speculation and repair:

* **Speculate.**  Each condition's n queries are cut into S segments of
  ``SEGMENT_QUERIES`` (the first may be shorter), and one vectorized
  loop steps all C x S *lanes* together from the empty system: about
  ``SEGMENT_QUERIES`` steps in place of n.
* **Repair.**  Every segment after the first is run again from its
  predecessor's speculative end state, ``_CHECK_STEPS`` steps at a time,
  until its server free times equal, bit for bit, its speculative
  run's at the same step.  A query's outputs depend only on its own
  inputs and on the free times it is dispatched on, so from there on
  the speculative outputs are exact.  Segment 0 is exact, and by
  induction so is every segment whose predecessor coupled.
* **Fall back.**  The last few lanes to couple, and every segment whose
  predecessor ran out of queries before coupling (an overloaded
  condition, or a busy period longer than a segment), are finished
  with the scalar step from the true state.

:meth:`repro.core.rt_model.ResponseTimeModel.simulate_many` runs the
batched kernel where :func:`batch_kernel_faster` says so, from
``MIN_VECTOR_LANES`` lanes up, and the scalar kernel once per condition
below.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro import telemetry
from repro._util.validation import check_count

#: Queries per segment of the batched kernel (segment 0 may be shorter).
#: Shorter segments mean fewer loop steps per call but more repair, and
#: more busy periods that outlast a segment.  Replaying the
#: ``simulate_many`` calls of two perfbench ``plan`` operations (seed 0,
#: 2-CPU x86-64 container), 128 took 630 ms and re-ran 17% of the
#: queries, 256 took 460-500 ms (8.5% re-run), 384 420-440 ms (5.5%)
#: and 512 590 ms (4%); on ``whatif``'s calls neither 384 nor 512 beat
#: 256 (82-155 ms against 78-100 ms).
SEGMENT_QUERIES = 256
#: Steps between two coupling checks of a repaired segment; divides
#: ``SEGMENT_QUERIES``.  On the same replay 8, 16 and 32 re-ran 5.6%,
#: 8.5% and 14% of the queries at the same speed within noise; each
#: halving doubles the memory the checkpoints take.
_CHECK_STEPS = 16
#: Steps between two coupling checks of the scalar repair, a multiple of
#: ``_CHECK_STEPS``: stopping for a check every 16 steps made a scalar
#: run of 16,000 queries 27% slower, every 64 steps 3%.
_SCALAR_CHECK_STEPS = 4 * _CHECK_STEPS
#: Fewest lanes for which one vectorized step beats a scalar step per
#: lane: the batched loops are ufunc-dispatch bound, so a step costs
#: about the same for 2 lanes as for 50.  The repair hands its last
#: lanes to the scalar step below it, and ``simulate_many`` picks the
#: serial kernel below it.  Median over five runs of ``simulate_many``
#: time with the serial kernel over the batched one, random k = 2
#: conditions (2-CPU x86-64 container, Python 3.11, NumPy 2.4; above
#: 1.00 the batched kernel is faster).  One-segment conditions cross
#: near 18 lanes, several-segment ones near 32:
#:
#:     queries     256  256  256  256 1024 1024 1024 1024 4096 4096 4096 16000 16000
#:     conditions   16   24   30   40    4    6    8   10    1    2    3     1     2
#:     lanes        16   24   30   40   16   24   32   40   16   32   48    63   126
#:     ratio      0.94 1.25 1.40 1.68 0.61 0.77 0.90 1.29 0.51 1.02 1.40  1.39  1.98
MIN_VECTOR_LANES = 30


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
    """Per-query outcomes of simulated runs.

    Every array is ``(n,)`` for one run of :func:`simulate_stap_queue`
    and ``(C, n)`` for :func:`simulate_stap_queue_batch`, whose row
    ``c`` is bit-identical to a serial run under ``configs[c]``.
    """

    arrival_times: np.ndarray
    start_times: np.ndarray
    completion_times: np.ndarray
    boosted: np.ndarray  # bool: did short-term allocation trigger?
    boosted_time: np.ndarray  # seconds each query spent boosted

    @property
    def response_times(self) -> np.ndarray:
        return self.completion_times - self.arrival_times

    @property
    def boost_fraction(self):
        """Fraction of queries that triggered short-term allocation, per
        run: a float for one run, a ``(C,)`` array for a batch."""
        if self.boosted.shape[-1] == 0:
            # ``[()]`` makes one run's 0-d zero a scalar.
            return np.zeros(self.boosted.shape[:-1])[()]
        return self.boosted.mean(axis=-1)

    def drop_warmup(self, fraction: float) -> "QueueResult":
        """Discard the first ``fraction`` of queries of every run
        (transient warmup)."""
        if not 0 <= fraction < 1:
            raise ValueError("fraction must be in [0, 1)")
        k = int(self.arrival_times.shape[-1] * fraction)
        return QueueResult(
            self.arrival_times[..., k:],
            self.start_times[..., k:],
            self.completion_times[..., k:],
            self.boosted[..., k:],
            self.boosted_time[..., k:],
        )


def _scalar_steps(
    queries, warn_delay, boost, free, start_out, completion_out, boosted_out
) -> None:
    """Dispatch ``(i, arrival, work)`` queries one by one, in order.

    ``free`` holds the server free times as Python floats: a sorted pair
    at k = 2, a heap otherwise.  It is advanced in place, so a run can
    stop at any query and go on later from the same state.  Query ``i``'s
    outputs are written at index ``i`` of the three memoryviews: Python
    floats in, memoryview writes out, so no NumPy scalar per query.

    Each iteration dispatches to the earliest-free server ``f`` and
    evaluates the closed-form service time with a rate switch at
    ``warn = a + warn_delay`` (work in seconds at the default rate)::

        t0 = a if f < a else f
        t1 = t0 + work                    if warn >= t0 + work
        t1 = t0 + work / boost            if warn <= t0
        t1 = t0 + (d + (work - d) / boost)    with d = warn - t0

    The boosted time is 0.0, the whole duration, or the boosted
    remainder.  The step is inlined in both loops below: a helper's
    call frame would cost a large share of each iteration.
    """
    if len(free) == 2:
        # Free times kept sorted, f0 <= f1: dispatch reads f0, and
        # re-insertion keeps f1 at the front on a tie, as a heap would.
        # The paper's per-service core count, so worth its own loop: with
        # the heapq loop below at k = 2 instead, perfbench ``whatif``
        # ``ops_per_s`` fell from a median 31.2 to 26.0, slower in 10 of
        # 10 alternating pairs (seed 0, 15 s runs, 2-CPU x86-64 container).
        f0, f1 = free
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
        free[:] = f0, f1
    else:
        # Min-heap of server free times: FCFS dispatch to the earliest-free server.
        pop, push = heapq.heappop, heapq.heappush
        for i, a, work in queries:
            f = pop(free)
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
            push(free, t1)


def _checked_inputs(arrival_times, demands, ndim: int):
    """Arrival times and demands as contiguous float arrays, checked:
    ``ndim``-D and of one shape, finite, demands >= 0 and arrivals
    sorted along the last axis (within each condition)."""
    arrivals = np.ascontiguousarray(arrival_times, dtype=float)
    demand = np.ascontiguousarray(demands, dtype=float)
    if arrivals.shape != demand.shape or arrivals.ndim != ndim:
        raise ValueError(
            f"arrival_times and demands must be matching {ndim}-D arrays, "
            f"got shapes {arrivals.shape} and {demand.shape}"
        )
    # NaN/inf would sail through the sortedness check below (comparisons
    # with NaN are False) and silently corrupt start/completion times.
    if not np.all(np.isfinite(arrivals)):
        raise ValueError("arrival_times must be finite (no NaN/inf)")
    if not np.all(np.isfinite(demand)):
        raise ValueError("demands must be finite (no NaN/inf)")
    # A negative demand would finish before it started: a negative
    # response time.  Zero demand is legal.
    if np.any(demand < 0):
        raise ValueError("demands must be >= 0")
    if arrivals.size and np.any(np.diff(arrivals) < 0):
        raise ValueError("arrival_times must be sorted")
    return arrivals, demand


def simulate_stap_queue(
    arrival_times,
    demands,
    config: StapQueueConfig,
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
    """
    # Telemetry: one enabled-flag check; never touches RNG or results.
    _tel = telemetry.enabled()
    _t0 = time.perf_counter() if _tel else 0.0
    arrivals, demand = _checked_inputs(arrival_times, demands, 1)
    n = arrivals.shape[0]
    works = demand * config.mean_service_time
    boost = config.boost_speedup
    # boost == 1 never switches rates, whatever the warning instant, so
    # an infinite warning delay takes the no-boost branch for it.
    warn_delay = np.inf if boost == 1.0 else config.warning_delay

    starts = np.empty(n)
    completions = np.empty(n)
    boosted_time = np.empty(n)
    _scalar_steps(
        zip(range(n), arrivals.tolist(), works.tolist()),
        warn_delay,
        boost,
        [0.0] * config.n_servers,
        memoryview(starts),
        memoryview(completions),
        memoryview(boosted_time),
    )

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
    return result


# The per-query service step shared by the two loop specializations
# below (inlined in each: at C ~ 25 the loops are ufunc-dispatch-bound,
# so the call frame and module-global lookups of a helper would cost
# ~15% of the whole kernel).  Each iteration evaluates, elementwise over
# lanes, the serial kernel's closed-form duration:
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
#
# Both loops run one step per row of their ``(steps, lanes)`` inputs and
# advance the ``(k, lanes)`` server free times ``free`` in place, so a
# run can stop after any row and go on later from the same state.
# ``warn_t`` may be ``btime_t`` itself: each step reads its warning row
# before it writes its boosted-time row.


def _batch_loop_k2(arr_t, works_t, warn_t, boost, starts_t, comp_t, btime_t, free):
    """Two-server inner loop (the paper's per-service core count).

    Server free times are kept sorted (``free[0] <= free[1]``) so
    dispatch is a read of row 0 and re-insertion is one
    ``minimum``/``maximum`` pair — no per-lane heap, no argmin.
    """
    f0, f1 = free
    n_lanes = boost.shape[0]
    done = np.empty(n_lanes)
    thr = np.empty(n_lanes)
    m1 = np.empty(n_lanes, dtype=bool)
    zeros = np.zeros(n_lanes)
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


def _batch_loop_general(arr_t, works_t, warn_t, boost, starts_t, comp_t, btime_t, free):
    """General inner loop: a ``(k, lanes)`` free-time matrix with
    argmin dispatch."""
    n_lanes = boost.shape[0]
    lanes = np.arange(n_lanes)
    done = np.empty(n_lanes)
    thr = np.empty(n_lanes)
    m1 = np.empty(n_lanes, dtype=bool)
    zeros = np.zeros(n_lanes)
    add, sub, div, argmin = np.add, np.subtract, np.divide, np.argmin
    vmax, ge, put = np.maximum, np.greater_equal, np.putmask
    for a, work, warn, t0, t1, rem in zip(
        arr_t, works_t, warn_t, starts_t, comp_t, btime_t
    ):
        j = argmin(free, axis=0)
        vmax(a, free[j, lanes], out=t0)
        add(t0, work, out=thr)
        sub(warn, t0, out=done)
        vmax(done, zeros, out=done)
        ge(warn, thr, out=m1)
        put(done, m1, work)
        sub(work, done, out=rem)
        div(rem, boost, out=rem)
        add(done, rem, out=done)
        add(t0, done, out=t1)
        free[j, lanes] = t1


def _to_lanes(x: np.ndarray, rows: int, n_segments: int) -> np.ndarray:
    """``(C, n)`` per-condition rows -> ``(rows, S * C)`` lane columns.

    Lane ``s * C + c`` holds segment ``s`` of condition ``c``.  Segments
    1 to S - 1 are ``rows`` queries each; segment 0 holds the first
    ``n - (S - 1) * rows`` and ends on the last row.  The rows before it
    are zeros: a query arriving at 0.0 with no work, dispatched on the
    empty system, leaves every free time at +0.0 and so changes nothing.
    """
    n_conditions, n = x.shape
    head = n - (n_segments - 1) * rows
    lanes = np.empty((rows, n_segments * n_conditions))
    grid = lanes.reshape(rows, n_segments, n_conditions)
    grid[: rows - head, 0] = 0.0
    grid[rows - head :, 0] = x[:, :head].T
    for s in range(1, n_segments):
        lo = head + (s - 1) * rows
        grid[:, s] = x[:, lo : lo + rows].T
    return lanes


def _from_lanes(lanes: np.ndarray, n_conditions: int, n: int) -> np.ndarray:
    """Inverse of :func:`_to_lanes`: ``(rows, S * C)`` -> ``(C, n)``."""
    rows = lanes.shape[0]
    n_segments = lanes.shape[1] // n_conditions
    head = n - (n_segments - 1) * rows
    grid = lanes.reshape(rows, n_segments, n_conditions)
    out = np.empty((n_conditions, n))
    out[:, :head] = grid[rows - head :, 0].T
    for s in range(1, n_segments):
        lo = head + (s - 1) * rows
        out[:, lo : lo + rows] = grid[:, s].T
    return out


def _same_bits(xs: list, ys: list) -> bool:
    """Bit-for-bit equality of two lists of floats (``0.0 == -0.0``, but
    the two steer ``t0 = a if f < a else f`` differently)."""
    return xs == ys and all(
        math.copysign(1.0, x) == math.copysign(1.0, y) for x, y in zip(xs, ys)
    )


def _sorted_columns(free: np.ndarray) -> np.ndarray:
    """Free times sorted per lane: two lanes with the same multiset of
    free times dispatch every later query identically, wherever each
    time sits in the argmin matrix."""
    return np.sort(free, axis=0)


def _no_sort(free: np.ndarray) -> np.ndarray:
    """The two-server loop keeps its free times sorted already."""
    return free


def _vector_repair(
    loop, canonical, arr_t, works_t, lane_delay, lane_boost, outputs, checks, ends
):
    """Re-run segments 1 to S - 1 from their predecessors' speculative
    end states, ``_CHECK_STEPS`` steps at a time over the lanes that have
    not yet coupled.

    A lane couples when its free times equal, bit for bit, those of its
    speculative run at the same checkpoint; from there on the two runs
    dispatch every query identically, so the speculative outputs stand.
    The sweep ends when every lane has coupled or run out of queries, or
    when fewer than ``MIN_VECTOR_LANES`` lanes are left.  Returns the
    lanes left, their free times, ``stop`` (the step at which the sweep
    left each lane) and the number of queries re-run.
    """
    rows, n_lanes = arr_t.shape
    n_conditions = n_lanes - checks.shape[2]
    active = np.arange(n_conditions, n_lanes)
    free = ends[:, : n_lanes - n_conditions].copy()
    stop = np.zeros(n_lanes, dtype=np.intp)
    starts_t, comp_t, btime_t = outputs
    repaired = 0
    step = 0
    while active.size >= MIN_VECTOR_LANES and step < rows:
        part = slice(step, step + _CHECK_STEPS)
        arr = arr_t[part, active]
        warn = arr + lane_delay[active]
        t0 = np.empty_like(arr)
        t1 = np.empty_like(arr)
        loop(arr, works_t[part, active], warn, lane_boost[active], t0, t1, warn, free)
        starts_t[part, active] = t0
        comp_t[part, active] = t1
        btime_t[part, active] = warn
        repaired += arr.size
        step += _CHECK_STEPS
        if step < rows:
            spec = checks[step // _CHECK_STEPS - 1][:, active - n_conditions]
        else:
            spec = canonical(ends[:, active])
        # Compared as int64 bits: 0.0 == -0.0, but they dispatch differently.
        coupled = np.all(
            canonical(free).view(np.int64) == spec.view(np.int64), axis=0
        )
        stop[active[coupled]] = step
        if not coupled.any():
            break
        active, free = active[~coupled], free[:, ~coupled]
    stop[active] = step
    return active, free, stop, repaired


def _scalar_repair(
    lanes, free, stop, checks, ends, canonical, condition_inputs, outputs, rows
):
    """Finish the repair of ``lanes`` with the scalar step, one condition
    at a time, writing into the ``(C, n)`` outputs.

    A lane goes on from the step and free times at which the vector
    sweep left it.  When a segment runs out of queries without coupling,
    its successor's repair started from the wrong state, so the
    successor is run again from its first query and the true end state;
    its outputs up to ``stop`` are the wrong run's, so it may couple only
    from there on.  Returns the queries re-run and the conditions in
    which some segment ended uncoupled before the last.
    """
    arrivals, demand, mean_service, warn_delay, boost = condition_inputs
    n_conditions, n = arrivals.shape
    mean_service, warn_delay, boost = (
        x.tolist() for x in (mean_service, warn_delay, boost)
    )
    n_segments = -(-n // rows)
    head = n - (n_segments - 1) * rows
    left = dict(zip(lanes.tolist(), free.T))
    stop = stop.tolist()
    repaired = fallbacks = 0
    for c in sorted({lane % n_conditions for lane in left}):
        mean, delay, speedup = mean_service[c], warn_delay[c], boost[c]
        views = [memoryview(out[c]) for out in outputs]
        carry = None
        fell_back = False
        for s in range(1, n_segments):
            lane = s * n_conditions + c
            if carry is not None:
                pos, state = 0, carry
                fell_back = True
            elif lane in left:
                pos, state = stop[lane], sorted(left[lane].tolist())
            else:
                continue
            lo = head + (s - 1) * rows
            queries = zip(
                range(lo + pos, lo + rows),
                arrivals[c, lo + pos : lo + rows].tolist(),
                (demand[c, lo + pos : lo + rows] * mean).tolist(),
            )
            carry = state
            step = pos
            while step < rows:
                # No check before ``stop``: the outputs there are not the
                # speculative run's.
                end = min(max(step + _SCALAR_CHECK_STEPS, stop[lane]), rows)
                _scalar_steps(
                    islice(queries, end - step), delay, speedup, state, *views
                )
                repaired += end - step
                step = end
                if step < rows:
                    spec = checks[step // _CHECK_STEPS - 1][:, lane - n_conditions]
                else:
                    spec = canonical(ends[:, lane])
                if _same_bits(sorted(state), spec.tolist()):
                    carry = None
                    break
        fallbacks += fell_back
    return repaired, fallbacks


def _simulate_lanes(condition_inputs, n_servers: int):
    """Speculate every segment from the empty system, then repair.

    Returns the ``(C, n)`` start, completion and boosted times, the
    number of queries re-run and the number of conditions that fell
    back (see :func:`_scalar_repair`).
    """
    arrivals, demand, mean_service, warn_delay, boost = condition_inputs
    n_conditions, n = arrivals.shape
    rows = min(n, SEGMENT_QUERIES)
    n_segments = -(-n // rows)
    n_lanes = n_segments * n_conditions
    if n_servers == 2:
        loop, canonical = _batch_loop_k2, _no_sort
    else:
        loop, canonical = _batch_loop_general, _sorted_columns
    lane_boost = np.tile(boost, n_segments)
    lane_delay = np.tile(warn_delay, n_segments)
    arr_t = _to_lanes(arrivals, rows, n_segments)
    works_t = _to_lanes(demand, rows, n_segments)
    works_t *= np.tile(mean_service, n_segments)
    # The boosted-time rows hold each query's warning instant until its
    # step overwrites them, so the kernel keeps no warning matrix.
    btime_t = arr_t + lane_delay
    starts_t = np.empty_like(arr_t)
    comp_t = np.empty_like(arr_t)
    outputs = (starts_t, comp_t, btime_t)
    free = np.zeros((n_servers, n_lanes))

    # Speculate: every lane from the empty system, keeping the free times
    # of segments 1 to S - 1 every _CHECK_STEPS steps.
    chunk = _CHECK_STEPS if n_segments > 1 else rows
    checks = np.empty((rows // chunk - 1, free.shape[0], n_lanes - n_conditions))
    for step in range(0, rows, chunk):
        part = slice(step, step + chunk)
        loop(
            arr_t[part], works_t[part], btime_t[part], lane_boost,
            starts_t[part], comp_t[part], btime_t[part], free,
        )
        if step + chunk < rows:
            checks[step // chunk] = canonical(free[:, n_conditions:])

    # Repair: segment 0 is exact, and so by induction is every segment
    # whose predecessor coupled.
    lanes, lane_free, stop, repaired = _vector_repair(
        loop, canonical, arr_t, works_t, lane_delay, lane_boost, outputs,
        checks, free,
    )
    del arr_t, works_t, outputs
    # Transpose one output at a time, so the peak is the loop's working set.
    start_times = _from_lanes(starts_t, n_conditions, n)
    del starts_t
    completion_times = _from_lanes(comp_t, n_conditions, n)
    del comp_t
    boosted_time = _from_lanes(btime_t, n_conditions, n)
    del btime_t
    results = (start_times, completion_times, boosted_time)
    fallbacks = 0
    if lanes.size:
        scalar_repaired, fallbacks = _scalar_repair(
            lanes, lane_free, stop, checks, free, canonical, condition_inputs,
            results, rows,
        )
        repaired += scalar_repaired
    return results, repaired, fallbacks


def batch_kernel_faster(n_conditions: int, n_queries: int) -> bool:
    """Whether one :func:`simulate_stap_queue_batch` call beats a
    :func:`simulate_stap_queue` run per condition, for ``n_conditions``
    distinct conditions of ``n_queries`` queries each: the batched
    kernel steps one lane per segment of each condition, and it is the
    faster one from ``MIN_VECTOR_LANES`` lanes up."""
    return n_conditions * -(-n_queries // SEGMENT_QUERIES) >= MIN_VECTOR_LANES


def simulate_stap_queue_batch(
    arrival_times,
    demands,
    configs,
) -> QueueResult:
    """FCFS G/G/k simulation of ``C`` conditions simultaneously.

    Speculation and repair (see the module docstring): one vectorized
    loop of about ``SEGMENT_QUERIES`` steps runs every segment of every
    condition from the empty system, then each segment is re-run from
    its predecessor's end state until it couples.  Each step dispatches
    one query *per lane* to that lane's earliest-free server; the
    arithmetic — ``max(a, min(free))`` dispatch and the closed-form
    mid-execution rate switch — is the serial kernel's, applied
    elementwise, so every condition row is **bit-identical**
    (``np.array_equal``) to a serial :func:`simulate_stap_queue` run
    under the same config.  With telemetry on, the counter
    ``queue.repaired_queries`` counts the queries run again and
    ``queue.fallback_conditions`` the conditions in which a segment
    ran out of queries before coupling.

    Parameters
    ----------
    arrival_times:
        ``(C, n)`` sorted absolute arrival timestamps, one row per
        condition.
    demands:
        ``(C, n)`` per-query work multipliers.
    configs:
        One :class:`StapQueueConfig` per condition, all with the same
        ``n_servers``.
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
    servers = {cfg.n_servers for cfg in configs}
    if len(servers) > 1:
        raise ValueError(f"configs must share one n_servers, got {sorted(servers)}")
    arrivals, demand = _checked_inputs(arrival_times, demands, 2)
    if arrivals.shape[0] != n_conditions:
        raise ValueError(
            f"arrival_times has {arrivals.shape[0]} condition rows, "
            f"expected {n_conditions}"
        )
    n = arrivals.shape[1]

    mean_service = np.array([c.mean_service_time for c in configs])
    warn_delay = np.array([c.warning_delay for c in configs])
    boost = np.array([c.boost_speedup for c in configs])
    # boost == 1 conditions never switch rates whatever the warning
    # instant, so an infinite warning delay is bit-identical for them
    # (the serial kernel does the same).
    warn_delay = np.where(boost == 1.0, np.inf, warn_delay)
    condition_inputs = (arrivals, demand, mean_service, warn_delay, boost)
    if n:
        (start_times, completion_times, boosted_time), repaired, fallbacks = (
            _simulate_lanes(condition_inputs, configs[0].n_servers)
        )
    else:
        start_times, completion_times, boosted_time = (
            np.empty((n_conditions, 0)) for _ in range(3)
        )
        repaired = fallbacks = 0
    result = QueueResult(
        arrival_times=arrivals,
        start_times=start_times,
        completion_times=completion_times,
        boosted=boosted_time > 0.0,
        boosted_time=boosted_time,
    )
    if _tel:
        telemetry.counter_inc("queue.batch_runs")
        telemetry.counter_inc("queue.batch_conditions", n_conditions)
        telemetry.counter_inc("queue.queries_simulated", n * n_conditions)
        telemetry.counter_inc("queue.repaired_queries", repaired)
        telemetry.counter_inc("queue.fallback_conditions", fallbacks)
        telemetry.histogram_observe(
            "queue.simulate_batch_seconds", time.perf_counter() - _t0
        )
    return result
