"""Host-speed reference: a fixed loop that runs none of the library's code.

The measuring host is shared, and its speed swings by up to 2x, both
within a second and over minutes.  While a run measures, a
:class:`Sampler` times this loop ten times a second from a ``SIGALRM``
handler, in the middle of whatever the process is doing.  Each measured
interval is then reported both as wall time and scaled to a host on
which the loop takes ``NOMINAL_S``: ``wall * NOMINAL_S / (mean loop time
of the samples in and around the interval)``.  A change to the library
moves the interval but not the loop, so the scaled time keeps its gains
and regressions and loses most of the host's swings.

The loop simulates two-server FCFS queues twice: first 256 at once, one
Python iteration per query over small NumPy arrays, then one at a time
over NumPy scalars with a heap.  That is the same mix of interpreter
dispatch and vector work as the library's batched and serial queue
kernels, forest inference and profiling, so it slows down with them
when the host does.  Its working set is about 70 KB, so it barely
disturbs the caches of the code it interrupts.
"""

from __future__ import annotations

import heapq
import signal
import time

import numpy as np

#: Reference-loop seconds on the host the scaled times are given for
#: (a 2-CPU container, Python 3.11, NumPy 2.4, measured 2-4 ms).
NOMINAL_S = 0.0025
#: Seconds between samples.
PERIOD_S = 0.1

_rng = np.random.default_rng(20240607)
_GAPS = _rng.exponential(1.0, (16, 256))
_WORK = _rng.exponential(1.8, (16, 256))
_STEPS = 80
_SERIAL_GAPS = _GAPS[:4].ravel()
_SERIAL_WORK = _WORK[:4].ravel()


def loop() -> float:
    """Seconds of one run of the reference loop."""
    t0 = time.perf_counter()
    # Service runs at the default rate until 2 s after arrival, 1.5x
    # faster after that.
    arrival = np.zeros(_GAPS.shape[1])
    free_a = np.zeros_like(arrival)
    free_b = np.zeros_like(arrival)
    for i in range(_STEPS):
        arrival = arrival + _GAPS[i % 16]
        w = _WORK[i % 16]
        start = np.maximum(arrival, np.minimum(free_a, free_b))
        warn = arrival + 2.0
        before = np.where(warn >= start + w, w, np.maximum(warn - start, 0.0))
        free_a, free_b = np.maximum(free_a, free_b), start + (before + (w - before) / 1.5)
    a = 0.0
    free = [0.0, 0.0]
    for i in range(_SERIAL_GAPS.size):
        a += _SERIAL_GAPS[i]
        w = _SERIAL_WORK[i]
        start = max(a, heapq.heappop(free))
        before = w if a + 2.0 >= start + w else max(a + 2.0 - start, 0.0)
        heapq.heappush(free, start + before + (w - before) / 1.5)
    return time.perf_counter() - t0


class Sampler:
    """Samples host speed every ``PERIOD_S`` while active.

    ``mark()`` starts an interval and ``measure(mark)`` ends it,
    returning ``(wall seconds, scaled seconds)``.  Time spent in the
    sampler is excluded from both.  A disabled sampler samples nothing
    and returns the wall time twice.  Use as a context manager; it
    restores the previous ``SIGALRM`` handler on exit.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[tuple[float, float]] = []
        self._spent = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        seconds = loop()
        self.samples.append((t0, seconds))
        self._spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        if self.enabled:
            self._handler(None, None)
            self._previous = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self._spent

    def measure(self, mark: tuple[float, float]) -> tuple[float, float]:
        t1, spent = time.perf_counter(), self._spent
        t0, spent0 = mark
        wall = (t1 - t0) - (spent - spent0)
        if not self.enabled:
            return wall, wall
        near = [s for t, s in self.samples if t0 - PERIOD_S <= t <= t1 + PERIOD_S]
        if not near:
            # Signals wait while a long C call runs; sample right after.
            self._handler(None, None)
            near = [self.samples[-1][1]]
        return wall, wall * NOMINAL_S * len(near) / sum(near)

    def median_sample(self) -> float:
        xs = sorted(s for _, s in self.samples)
        return xs[len(xs) // 2] if xs else float("nan")
