"""Reference serial STAP queue for equivalence tests.

This is the per-query ``heapq`` loop :func:`simulate_stap_queue` ran
before it became a Python-float scalar kernel: a min-heap of server
free times, NumPy-indexed inputs and outputs, and the closed-form
service duration as a helper.  The shipped serial and batched kernels
must reproduce it bit for bit.
"""

import heapq

import numpy as np

from repro.queueing.ggk import QueueResult


def _service_duration(
    start: float, warn_at: float, work: float, boost_speedup: float
) -> tuple[float, float]:
    """Closed-form service duration with a mid-execution rate switch.

    Work is measured in seconds-at-default-rate.  Returns ``(duration,
    boosted_time)``.
    """
    if boost_speedup == 1.0 or warn_at >= start + work:
        return work, 0.0
    if warn_at <= start:
        dur = work / boost_speedup
        return dur, dur
    done_before = warn_at - start
    remaining = work - done_before
    boosted = remaining / boost_speedup
    return done_before + boosted, boosted


def simulate_heap_queue(arrival_times, demands, config) -> QueueResult:
    """FCFS G/G/k run of one condition, one heap operation per query.

    Inputs are assumed checked (finite, sorted, matching 1-D shapes).
    """
    arrivals = np.ascontiguousarray(arrival_times, dtype=float)
    demand = np.ascontiguousarray(demands, dtype=float)
    n = arrivals.shape[0]
    works = demand * config.mean_service_time
    warn_delay = config.warning_delay

    starts = np.empty(n)
    completions = np.empty(n)
    boosted = np.zeros(n, dtype=bool)
    boosted_time = np.zeros(n)

    # Min-heap of server free times: FCFS dispatch to the earliest-free server.
    free_at = [0.0] * config.n_servers
    heapq.heapify(free_at)
    for i in range(n):
        a = arrivals[i]
        earliest = heapq.heappop(free_at)
        t0 = a if earliest < a else earliest
        warn_at = a + warn_delay
        dur, btime = _service_duration(t0, warn_at, works[i], config.boost_speedup)
        t1 = t0 + dur
        starts[i] = t0
        completions[i] = t1
        boosted[i] = btime > 0.0
        boosted_time[i] = btime
        heapq.heappush(free_at, t1)

    return QueueResult(
        arrival_times=arrivals,
        start_times=starts,
        completion_times=completions,
        boosted=boosted,
        boosted_time=boosted_time,
    )
