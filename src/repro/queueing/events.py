"""Minimal discrete-event simulation kernel.

A binary-heap event loop with deterministic tie-breaking (insertion
order), used by the collocation testbed runtime.  The Stage 3 G/G/k
simulator uses a specialized loop for speed but shares the same clock
discipline.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable


class EventLoop:
    """Priority-queue event loop.

    Events are ``(time, seq, callback)``; callbacks may schedule further
    events.  ``seq`` guarantees FIFO order among simultaneous events,
    keeping runs deterministic.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self.now = 0.0

    def schedule(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute, finite simulation ``time``."""
        # Written so NaN fails too: it compares False with everything,
        # so a plain ``time < now`` check would let it into the heap.
        if not self.now <= time < math.inf:
            raise ValueError(
                f"cannot schedule at {time}: times must be finite and not "
                f"in the past (now={self.now})"
            )
        heapq.heappush(self._heap, (time, next(self._seq), callback))

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` after ``delay`` time units."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.schedule(self.now + delay, callback)

    @property
    def pending(self) -> int:
        return len(self._heap)

    def step(self) -> bool:
        """Process one event; returns False when the heap is empty."""
        if not self._heap:
            return False
        time, _, callback = heapq.heappop(self._heap)
        self.now = time
        callback()
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain events, optionally stopping at time ``until`` or after
        ``max_events`` callbacks."""
        n = 0
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                self.now = until
                return
            if max_events is not None and n >= max_events:
                return
            self.step()
            n += 1
