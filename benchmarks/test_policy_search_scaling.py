"""Scaling of the Section 5.2 policy exploration.

Times the 2-service, 25-combination timeout search (the paper's 5x5
grid) two ways: the shipped lockstep, where every fixed-point round
simulates all 50 services in one batched kernel call, and a loop that
predicts one combination at a time (``StacModel.predict_condition``).
Both must agree bit-for-bit on the whole response-time matrix and so
pick the *identical* timeout vector.

The loop / lockstep time ratio is printed, not asserted.  The
equivalence asserts always run, including in smoke mode
(``BENCH_SMOKE=1``, a lighter simulated queue), which CI uses on every
push.
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
from repro.core.profile_vec import RuntimeCondition
from repro.core.profiler import ProfilerSettings

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
#: Queries per simulated queue: heavy enough for the regime the search
#: faces in production-scale planning (a lighter one in smoke mode).
SIM_QUERIES = 2000 if SMOKE else 16000
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
    model = StacModel(rng=0, sim_queries=SIM_QUERIES, **DF_CONFIG)
    return model.fit(profiler.profile(conditions))


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _per_combination(model, combos) -> np.ndarray:
    preds = [
        model.predict_condition(RuntimeCondition(PAIR, UTILS, combo))
        for combo in combos
    ]
    return np.array([[s.p95 for s in p.summaries] for p in preds])


def test_policy_search_scaling():
    model = _fitted_model()

    (lockstep, t_lockstep) = _timed(
        lambda: explore_timeouts(model, PAIR, UTILS, DEFAULT_TIMEOUT_GRID)
    )
    combos, rt_lockstep = lockstep
    assert len(combos) == 25
    rt_loop, t_loop = _timed(lambda: _per_combination(model, combos))

    # The lockstep is bit-identical to predicting each combination on
    # its own, so both land on the same chosen vector.
    assert np.array_equal(rt_lockstep, rt_loop)
    chosen = slo_matching(rt_lockstep)
    assert slo_matching(rt_loop) == chosen

    rows = [
        ["lockstep", t_lockstep, 1.0],
        ["per-combination loop", t_loop, t_loop / t_lockstep],
    ]
    print_block(
        format_table(
            ["mode", "seconds", "time / lockstep"],
            rows,
            title=(
                f"Policy-search scaling: 25-combo grid, pair {PAIR}, "
                f"sim_queries={SIM_QUERIES}; chosen combo "
                f"{combos[chosen]}"
                + (" [smoke]" if SMOKE else "")
            ),
        )
    )
