"""Process-wide metrics registry: counters, gauges and histograms.

The registry is the aggregation point of the telemetry subsystem.  All
mutation goes through a single :class:`threading.Lock`, so concurrent
threads never race.  Everything the registry stores is a plain
float/int/list, so :meth:`MetricsRegistry.snapshot` is JSON-serializable.
The registry touches no RNG and reads no clock: callers observe the
values, durations included, that they measured themselves.
"""

from __future__ import annotations

import threading

#: Default bucket edges (seconds) for duration histograms: 10 us .. 100 s.
DEFAULT_TIME_EDGES: tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0
)


class Histogram:
    """Fixed-bucket histogram with running sum/min/max.

    ``edges`` are the (sorted, immutable) upper bucket boundaries; an
    observation lands in the first bucket whose edge is >= the value,
    with one overflow bucket past the last edge (``len(edges) + 1``
    counts total).
    """

    __slots__ = ("edges", "counts", "sum", "count", "min", "max")

    def __init__(self, edges=DEFAULT_TIME_EDGES):
        edges = tuple(float(e) for e in edges)
        if len(edges) == 0:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        v = float(value)
        i = 0
        for i, edge in enumerate(self.edges):
            if v <= edge:
                break
        else:
            i = len(self.edges)
        self.counts[i] += 1
        self.sum += v
        self.count += 1
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def to_dict(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class MetricsRegistry:
    """Thread-safe process-wide metric store.

    Counters accumulate, gauges keep the last written value, histograms
    bucket observations against fixed edges.  :meth:`snapshot` copies the whole registry into plain
    dicts for export.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- mutation --------------------------------------------------------------

    def counter_inc(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge_set(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def histogram_observe(self, name: str, value: float, edges=None) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = Histogram(edges if edges is not None else DEFAULT_TIME_EDGES)
                self._histograms[name] = hist
            hist.observe(value)

    # -- read ------------------------------------------------------------------

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def gauge(self, name: str) -> float | None:
        with self._lock:
            return self._gauges.get(name)

    def histogram(self, name: str) -> Histogram | None:
        with self._lock:
            return self._histograms.get(name)

    # -- aggregation -----------------------------------------------------------

    def snapshot(self) -> dict:
        """A picklable/JSON-safe copy of the whole registry."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    k: h.to_dict() for k, h in self._histograms.items()
                },
            }
