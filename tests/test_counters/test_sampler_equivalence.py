"""Vectorized Stage 1 sampling reproduces the scalar walk bit for bit.

Every comparison is exact (``np.array_equal``): the vectorized tick
means keep each tick's left-to-right accumulation order, the overlap
sums its pieces in sweep order and the batched noise draw consumes the
RNG in tick order, so no tolerance is needed.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import RuntimeCondition
from repro.core.profiler import Profiler, ProfilerSettings
from repro.core.sampling import uniform_conditions
from repro.counters import CounterSampler
from repro.testbed import (
    CollocatedService,
    CollocationConfig,
    CollocationRuntime,
    default_machine,
)
from repro.workloads import get_workload

from .sampler_oracle import patch_profiler, sample_oracle

SETTINGS = ProfilerSettings(n_queries=240, n_windows=3, trace_ticks=12)
FIELDS = ("X_flat", "traces", "y_ea", "y_rt_mean", "y_rt_p95")


def _conditions(workloads):
    conds = uniform_conditions(workloads[:2], n=2, rng=4)
    if len(workloads) == 2:
        return conds
    return [
        RuntimeCondition(workloads, (0.8, 0.7, 0.75), (0.5, 1.0, 0.0)),
        RuntimeCondition(workloads, (0.6, 0.85, 0.7), (np.inf, 0.3, 1.5)),
    ]


def _profile(conditions, hz=1.0):
    settings = replace(SETTINGS, sampling_hz=hz)
    return Profiler(settings=settings, rng=3).profile(conditions)


def _assert_same(a, b):
    assert len(a) == len(b) > 0
    for name in FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("hz", [1.0, 0.2])
@pytest.mark.parametrize(
    "workloads", [("redis", "knn"), ("redis", "knn", "jacobi")], ids=["pair", "chain"]
)
def test_profile_matches_oracle(monkeypatch, workloads, hz):
    conditions = _conditions(workloads)
    fast = _profile(conditions, hz)
    with monkeypatch.context() as m:
        patch_profiler(m)
        slow = _profile(conditions, hz)
    _assert_same(fast, slow)


def test_quick_ea_matches_oracle(monkeypatch):
    cond = RuntimeCondition(("redis", "social"), (0.9, 0.85), (0.2, 0.5))
    fast = Profiler(rng=8).quick_ea(cond, n_queries=200)
    with monkeypatch.context() as m:
        patch_profiler(m)
        slow = Profiler(rng=8).quick_ea(cond, n_queries=200)
    assert np.array_equal(fast, slow)


@pytest.mark.parametrize("hz", [1.0, 0.2, 3.0])
def test_sample_matches_oracle(hz):
    cfg = CollocationConfig(
        machine=default_machine(),
        services=[
            CollocatedService(get_workload("jacobi"), timeout=0.5, utilization=0.9),
            CollocatedService(get_workload("bfs"), timeout=1.0, utilization=0.8),
        ],
    )
    run = CollocationRuntime(cfg, rng=5).run(n_queries=300)
    svc = run.services[0]
    sampler = CounterSampler(sampling_hz=hz)
    args = (svc, get_workload("jacobi"), cfg.machine)
    # Windows before the first snapshot, inside the run and past its end.
    for t0, t1 in [(-3.0, 4.5), (7.25, 61.0), (100.0, 400.0)]:
        fast = sampler.sample(*args, t0, t1, rng=11)
        slow = sample_oracle(sampler, *args, t0, t1, rng=11)
        assert np.array_equal(fast, slow)
