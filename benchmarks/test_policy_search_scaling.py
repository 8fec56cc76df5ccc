"""Scaling of the Section 5.2 policy exploration.

Times the 2-service, 25-combination timeout search (the paper's 5x5
grid) two ways — in-process, where every fixed-point round simulates
all 50 services in one batched kernel call, and across a 4-worker
process pool — and verifies the core determinism guarantee: both must
agree bit-for-bit on the whole response-time matrix and so pick the
*identical* timeout vector.

The pool / in-process time ratio is printed, not asserted: on the
machines measured so far the pool's start-up and pickling cost
outweighs the split of an already batched search.
"""

import os
import time

import numpy as np

from benchmarks.conftest import print_block
from repro import Profiler, StacModel, uniform_conditions
from repro.analysis import format_table
from repro.core.policy_search import (
    DEFAULT_TIMEOUT_GRID,
    explore_timeouts,
    slo_matching,
)
from repro.core.profiler import ProfilerSettings

PAIR = ("redis", "knn")
UTILS = (0.9, 0.9)

DF_CONFIG = dict(
    windows=[(5, 5)],
    mgs_estimators=5,
    mgs_max_instances=2000,
    n_levels=1,
    forests_per_level=2,
    n_estimators=10,
)


def _fitted_model() -> StacModel:
    conditions = uniform_conditions(PAIR, n=6, rng=0)
    profiler = Profiler(
        settings=ProfilerSettings(n_queries=300, n_windows=3, trace_ticks=12),
        rng=0,
    )
    # A heavier simulated queue per combination: the regime the search
    # actually faces in production-scale planning.
    model = StacModel(rng=0, sim_queries=16000, **DF_CONFIG)
    return model.fit(profiler.profile(conditions))


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_policy_search_scaling():
    model = _fitted_model()
    n_cpus = len(os.sched_getaffinity(0))

    (inproc, t_inproc) = _timed(
        lambda: explore_timeouts(model, PAIR, UTILS, DEFAULT_TIMEOUT_GRID)
    )
    (par, t_par) = _timed(
        lambda: explore_timeouts(
            model, PAIR, UTILS, DEFAULT_TIMEOUT_GRID, n_jobs=4
        )
    )

    combos, rt_inproc = inproc
    combos_par, rt_par = par
    assert len(combos) == 25
    assert combos_par == combos

    # Determinism guarantee: the pool is bit-identical to the
    # in-process search, so both land on the same chosen vector.
    assert np.array_equal(rt_inproc, rt_par)
    chosen = slo_matching(rt_inproc)
    assert slo_matching(rt_par) == chosen

    rows = [
        ["in-process", t_inproc, 1.0],
        ["4 workers", t_par, t_par / t_inproc],
    ]
    print_block(
        format_table(
            ["mode", "seconds", "time / in-process"],
            rows,
            title=(
                f"Policy-search scaling: 25-combo grid, pair {PAIR}, "
                f"{n_cpus} CPU(s) available; chosen combo "
                f"{combos[chosen]}"
            ),
        )
    )
