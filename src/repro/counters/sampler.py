"""Rate-limited counter sampling over a simulated run's state segments.

The runtime records each service's state snapshots as a
:class:`~repro.testbed.runtime.SegmentTable` (time, capacity,
n_in_service, n_queued, boosted).  The sampler integrates those
piecewise-constant segments over fixed sampling ticks (1 Hz - 0.2 Hz in
the paper) and synthesizes the counter matrix of a window in one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro._util import as_rng
from repro.counters.events import synthesize_ticks
from repro.testbed.machine import XeonSpec
from repro.testbed.runtime import SegmentTable, ServiceResult
from repro.workloads.base import WorkloadSpec


def _segment_means(segments: SegmentTable, t0, t1, n_servers: int) -> np.ndarray:
    """Time-weighted (capacity, busy_fraction, boost_fraction,
    mean_queue_length) over each interval [t0, t1).

    ``t0`` and ``t1`` are scalars or equal-shape arrays of interval
    edges; the result has shape ``(4,) + shape``, one row per quantity.
    Before the first snapshot the first segment's state holds.  The two
    fractions are capped at 1 against rounding.

    Every interval is walked over the segments it touches, left to
    right, all intervals in lockstep: the per-segment terms form an
    ``(interval, position)`` grid padded with zeros, and a cumulative
    sum along positions adds them in the same order a scalar walk would,
    so the means are exact to the last bit.
    """
    t0, t1 = np.broadcast_arrays(np.asarray(t0, float), np.asarray(t1, float))
    shape = t0.shape
    a = t0.ravel()
    b = t1.ravel()
    if not np.all(b > a):
        raise ValueError("need t1 > t0")
    times = segments.time
    # First (clamped to 0) and last segment each interval touches.
    first = np.maximum(np.searchsorted(times, a, side="right") - 1, 0)
    last = np.maximum(np.searchsorted(times, b, side="left") - 1, first)
    lo = int(first.min())
    hi = int(last.max()) + 1
    steps = np.arange(int((last - first).max()) + 1)
    pos = first[:, None] + steps
    valid = pos <= last[:, None]
    pos = np.minimum(pos, last[:, None]) - lo
    seg_times = times[lo:hi]
    seg_ends = np.append(
        times[lo + 1 : hi], times[hi] if hi < times.size else np.inf
    )
    start = np.where(steps == 0, a[:, None], seg_times[pos])
    stop = np.minimum(seg_ends[pos], b[:, None])
    dt = np.where(valid, np.maximum(0.0, stop - start), 0.0)
    values = np.stack(
        [
            segments.capacity[lo:hi],
            np.minimum(segments.n_in_service[lo:hi], n_servers) / n_servers,
            segments.boosted[lo:hi].astype(float),
            segments.n_queued[lo:hi].astype(float),
        ]
    )
    acc = np.cumsum(values[:, pos] * dt, axis=2)[:, :, -1]
    means = acc / (b - a)
    # The pieces of a fully busy or boosted interval can round to 1 + 1 ulp.
    np.minimum(means[1:3], 1.0, out=means[1:3])
    return means.reshape((4,) + shape)


@dataclass(frozen=True)
class CounterSampler:
    """Sample a service's counters at ``sampling_hz`` over a run.

    ``sampling_hz`` is on the runtime's (normalized) clock; the paper's
    1 Hz-0.2 Hz rates map to 12-60 samples per minute of profiling.
    """

    sampling_hz: float = 1.0
    noise: float = 0.05

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sampling_hz) and self.sampling_hz > 0):
            raise ValueError(
                f"sampling_hz must be finite and > 0, got {self.sampling_hz}"
            )
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")

    def sample(
        self,
        result: ServiceResult,
        spec: WorkloadSpec,
        machine: XeonSpec,
        t_start: float,
        t_end: float,
        rng=None,
    ) -> np.ndarray:
        """Counter matrix of shape (n_ticks, 29) over [t_start, t_end)."""
        if not (math.isfinite(t_start) and math.isfinite(t_end)):
            raise ValueError(
                f"need finite t_start and t_end, got {t_start}, {t_end}"
            )
        if t_end <= t_start:
            raise ValueError("need t_end > t_start")
        rng = as_rng(rng)
        dt = 1.0 / self.sampling_hz
        n_ticks = max(1, int(np.floor((t_end - t_start) / dt)))
        starts = t_start + np.arange(n_ticks) * dt
        cap, busy, boost, _ = _segment_means(
            result.segments, starts, starts + dt, machine.cores_per_service
        )
        if machine.way_bytes > 0:
            ways = cap / machine.way_bytes
        else:
            ways = machine.mb_to_ways(spec.baseline_capacity / (1024 * 1024))
        return synthesize_ticks(
            spec,
            capacity_bytes=cap,
            busy_fraction=busy,
            boost_fraction=boost,
            dt=dt,
            ways_allocated=ways,
            rng=rng,
            noise=self.noise,
        )
