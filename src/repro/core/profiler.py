"""Stage 1: profile collocated workloads under sampled runtime conditions.

Each condition is executed on the testbed runtime; the run is split
into windows, and every (service, window) yields one profile row with
static/dynamic features, the collocated counter trace and measured
effective cache allocation.  The returned dataset records the machine
and the :class:`ProfilerSettings` the campaign ran with: that layout is
decided here, once, and Stage 3 adopts it from the dataset.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro import telemetry
from repro._util import as_rng, spawn_rngs
from repro.counters.sampler import CounterSampler, _segment_means
from repro.counters.trace import CacheUsageTrace
from repro.core.profile_vec import (
    ProfileDataset,
    ProfileRow,
    ProfilerSettings,
    RuntimeCondition,
    chain_partner,
    chain_static_features,
    dynamic_features,
)
from repro.testbed.collocation import CollocatedService, CollocationConfig
from repro.testbed.machine import XeonSpec, default_machine
from repro.testbed.runtime import CollocationRuntime, RunResult, SegmentTable
from repro.workloads.suite import get_workload


def _boosted_at(segments: SegmentTable, t: np.ndarray) -> np.ndarray:
    """Whether the service is boosted at each time (the first segment's
    state holds before the first snapshot)."""
    idx = np.searchsorted(segments.time, t, side="right") - 1
    return segments.boosted[np.maximum(idx, 0)]


def _boost_overlap(
    own_segments: SegmentTable,
    partner_segments: SegmentTable,
    t0: float,
    t1: float,
) -> float:
    """Fraction of [t0, t1) during which *both* services are boosted.

    Segments are piecewise-constant state snapshots.  The window is cut
    at every snapshot time of either service, so the measurement is
    exact; the pieces where both are boosted are summed left to right.
    """
    if not t1 > t0:
        raise ValueError("need t1 > t0")

    def inside(times):
        """Snapshot times strictly inside (t0, t1)."""
        lo = np.searchsorted(times, t0, side="right")
        return times[lo : np.searchsorted(times, t1, side="left")]

    bounds = np.unique(
        np.concatenate(
            [[t0, t1], inside(own_segments.time), inside(partner_segments.time)]
        )
    )
    starts = bounds[:-1]
    both = _boosted_at(own_segments, starts) & _boosted_at(partner_segments, starts)
    pieces = np.diff(bounds)[both]
    overlap = np.cumsum(pieces)[-1] if pieces.size else 0.0
    # Pieces covering the whole window can round to 1 + 1 ulp.
    return min(float(overlap / (t1 - t0)), 1.0)


def collocation(
    condition: RuntimeCondition,
    machine: XeonSpec,
    private_mb: float,
    shared_mb: float,
) -> CollocationConfig:
    """The chain layout ``condition`` runs on: the one place a megabyte
    reservation becomes whole LLC ways, for Stage 1 and Stage 3 alike."""
    return CollocationConfig(
        machine=machine,
        services=[
            CollocatedService(get_workload(name), timeout=t, utilization=u)
            for name, t, u in zip(
                condition.workloads, condition.timeouts, condition.utilizations
            )
        ],
        private_mb=private_mb,
        shared_mb=shared_mb,
    )


def run_condition(
    condition: RuntimeCondition,
    machine: XeonSpec,
    settings: ProfilerSettings,
    seed,
) -> RunResult:
    """Run ``condition`` on the testbed layout of ``machine`` and
    ``settings``: their reservations, ``n_queries`` and warmup.  Every
    testbed run of the pipeline goes through here, Stage 1's profiling
    and the ground truth that judges a timeout vector alike."""
    cfg = collocation(condition, machine, settings.private_mb, settings.shared_mb)
    return CollocationRuntime(cfg, rng=seed).run(
        n_queries=settings.n_queries, warmup_fraction=settings.warmup_fraction
    )


def _profile_one_condition(condition, settings, machine, seed):
    """Run one condition and emit its profile rows."""
    with telemetry.span("stage1.testbed_run", n_queries=settings.n_queries):
        run = run_condition(condition, machine, settings, seed)
    specs = [svc.workload for svc in run.config.services]
    sampler = CounterSampler(
        sampling_hz=settings.sampling_hz, noise=settings.counter_noise
    )
    rng = np.random.default_rng(seed + 1)
    rows = []
    n_svc = len(specs)
    grosses = [s.gross_increase for s in run.services]
    for i in range(n_svc):
        own = run.services[i]
        partner_idx = chain_partner(n_svc, i)
        partner = run.services[partner_idx] if partner_idx is not None else None
        own_spec = specs[i]
        partner_spec = specs[partner_idx] if partner_idx is not None else None
        x_static = chain_static_features(condition, specs, grosses, i)
        for w, sl in enumerate(own.window_slices(settings.n_windows)):
            wv = own.window_view(sl)
            if wv.n_queries < 3:
                continue
            t0 = float(wv.arrival_times[0])
            t1 = float(wv.completion_times.max())
            if t1 <= t0:
                continue
            _, _, own_boost, own_qlen = _segment_means(own.segments, t0, t1, 1)
            partner_boost = 0.0
            concurrent = 0.0
            if partner is not None:
                _, _, partner_boost, _ = _segment_means(partner.segments, t0, t1, 1)
                with telemetry.span("stage1.boost_overlap", service=i, window=w):
                    concurrent = _boost_overlap(
                        own.segments, partner.segments, t0, t1
                    )
            with telemetry.span("stage1.sample_counters", service=i, window=w):
                mats = [sampler.sample(own, own_spec, machine, t0, t1, rng=rng)]
                names = [own_spec.name]
                if partner is not None:
                    mats.append(
                        sampler.sample(partner, partner_spec, machine, t0, t1, rng=rng)
                    )
                    names.append(partner_spec.name)
            trace = CacheUsageTrace.from_counters(
                mats, names, n_ticks=settings.trace_ticks
            )
            x_dynamic = dynamic_features(
                mean_queue_length=own_qlen,
                own_boost_fraction=own_boost,
                partner_boost_fraction=partner_boost,
                concurrent_boost_fraction=concurrent,
            )
            rows.append(
                ProfileRow(
                    condition=condition,
                    service_idx=i,
                    window_idx=w,
                    x_static=x_static,
                    x_dynamic=x_dynamic,
                    trace=trace.data,
                    ea=wv.effective_allocation(),
                    rt_mean=float(wv.response_times_norm.mean()),
                    rt_p95=float(np.percentile(wv.response_times_norm, 95)),
                )
            )
    return rows


class Profiler:
    """Stage 1 profiling campaign driver."""

    def __init__(
        self,
        machine: XeonSpec | None = None,
        settings: ProfilerSettings | None = None,
        rng=None,
    ):
        self.machine = machine or default_machine()
        self.settings = settings or ProfilerSettings()
        self._rng = as_rng(rng)

    def profile(self, conditions: list[RuntimeCondition]) -> ProfileDataset:
        """Run every condition and collect the profile dataset, which
        records this profiler's machine and settings."""
        if not conditions:
            raise ValueError("need at least one condition")
        seeds = [
            int(r.integers(0, 2**31)) for r in spawn_rngs(self._rng, len(conditions))
        ]
        dataset = ProfileDataset(machine=self.machine, settings=self.settings)
        with telemetry.span("stage1.profile", n_conditions=len(conditions)):
            for condition, seed in zip(conditions, seeds):
                with telemetry.span("stage1.profile.condition"):
                    dataset.extend(
                        _profile_one_condition(
                            condition, self.settings, self.machine, seed
                        )
                    )
        telemetry.counter_inc("stage1.profile_rows", len(dataset))
        return dataset

    def quick_ea(self, condition: RuntimeCondition, n_queries: int = 200) -> np.ndarray:
        """Cheap seed measurement of per-service EA (stratified sampling)."""
        settings = replace(
            self.settings, n_queries=n_queries, n_windows=1, trace_ticks=4
        )
        seed = int(self._rng.integers(0, 2**31))
        rows = _profile_one_condition(condition, settings, self.machine, seed)
        n_svc = len(condition.workloads)
        eas = np.full(n_svc, np.nan)
        for r in rows:
            eas[r.service_idx] = r.ea
        return eas
