"""Reference scalar Stage 1 sampling for equivalence tests.

These are the per-tick walks the sampler and profiler used before they
were vectorized: :func:`segment_means_oracle` walks one interval over
the segment list, :func:`boost_overlap_oracle` sweeps the merged
boundary list, and :func:`sample_oracle` synthesizes one counter vector
per tick.  The vectorized code must reproduce them bit for bit.

:func:`patch_profiler` swaps them into ``repro.core.profiler`` and
``CounterSampler.sample`` (with the vectorized signatures), so a whole
profiling campaign can be rerun on the scalar path.
"""

import numpy as np

from repro._util import as_rng
from repro.core import profiler
from repro.counters.events import N_COUNTERS, synthesize_tick
from repro.counters.sampler import CounterSampler


def segment_means_oracle(segments, t0, t1, n_servers):
    """Time-weighted (capacity, busy_fraction, boost_fraction,
    mean_queue_length) over [t0, t1) of (time, capacity, n_in_service,
    n_queued, boosted) snapshots."""
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    total = t1 - t0
    cap_acc = busy_acc = boost_acc = queue_acc = 0.0
    times = [s[0] for s in segments]
    # Find the segment active at t0.
    idx = int(np.searchsorted(times, t0, side="right")) - 1
    idx = max(idx, 0)
    t = t0
    while t < t1 and idx < len(segments):
        seg_time, cap, n_in, n_queued, boosted = segments[idx]
        seg_end = times[idx + 1] if idx + 1 < len(segments) else np.inf
        upto = min(seg_end, t1)
        dt = max(0.0, upto - t)
        cap_acc += cap * dt
        busy_acc += (min(n_in, n_servers) / n_servers) * dt
        boost_acc += (1.0 if boosted else 0.0) * dt
        queue_acc += n_queued * dt
        t = upto
        idx += 1
    return cap_acc / total, busy_acc / total, boost_acc / total, queue_acc / total


def boost_overlap_oracle(own_segments, partner_segments, t0, t1):
    """Fraction of [t0, t1) during which *both* services are boosted."""
    if t1 <= t0:
        raise ValueError("need t1 > t0")

    def boosted_at(segments, times, t):
        idx = int(np.searchsorted(times, t, side="right")) - 1
        return bool(segments[max(idx, 0)][4])

    own_times = [s[0] for s in own_segments]
    partner_times = [s[0] for s in partner_segments]
    bounds = sorted(
        {t0, t1}
        | {t for t in own_times if t0 < t < t1}
        | {t for t in partner_times if t0 < t < t1}
    )
    overlap = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        if boosted_at(own_segments, own_times, a) and boosted_at(
            partner_segments, partner_times, a
        ):
            overlap += b - a
    return overlap / (t1 - t0)


def sample_oracle(sampler, result, spec, machine, t_start, t_end, rng=None):
    """Counter matrix of shape (n_ticks, 29), one tick at a time."""
    if t_end <= t_start:
        raise ValueError("need t_end > t_start")
    rng = as_rng(rng)
    segments = list(result.segments)
    dt = 1.0 / sampler.sampling_hz
    n_ticks = max(1, int(np.floor((t_end - t_start) / dt)))
    out = np.empty((n_ticks, N_COUNTERS))
    n_servers = machine.cores_per_service
    default_ways = machine.mb_to_ways(spec.baseline_capacity / (1024 * 1024))
    for k in range(n_ticks):
        a = t_start + k * dt
        b = a + dt
        cap, busy, boost, _ = segment_means_oracle(segments, a, b, n_servers)
        ways = cap / machine.way_bytes if machine.way_bytes > 0 else default_ways
        out[k] = synthesize_tick(
            spec,
            capacity_bytes=cap,
            busy_fraction=busy,
            boost_fraction=boost,
            dt=dt,
            ways_allocated=ways,
            rng=rng,
            noise=sampler.noise,
        )
    return out


def _profiler_segment_means(segments, t0, t1, n_servers):
    return np.array(segment_means_oracle(list(segments), t0, t1, n_servers))


def _profiler_boost_overlap(own_segments, partner_segments, t0, t1):
    return boost_overlap_oracle(list(own_segments), list(partner_segments), t0, t1)


def patch_profiler(monkeypatch):
    """Route Stage 1 profiling through the scalar oracles."""
    monkeypatch.setattr(profiler, "_segment_means", _profiler_segment_means)
    monkeypatch.setattr(profiler, "_boost_overlap", _profiler_boost_overlap)
    monkeypatch.setattr(CounterSampler, "sample", sample_oracle)
