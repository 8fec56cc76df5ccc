"""Extension: UCP static partitioning vs model-driven short-term allocation.

Qureshi & Patt's utility-based cache partitioning (related work [21])
optimally splits ways by marginal miss utility — but "ignores queuing
delay since it is implemented below the software stack".  At the same
total way budget (6 ways on the e5-2683), UCP maximizes aggregate
utility by starving the low-utility workload; temporal sharing driven
by the response-time model keeps both services' tails healthy.
"""

import numpy as np

from benchmarks.conftest import print_block
from repro.analysis import format_table
from repro.baselines import ucp_private_mb
from repro.core import StacModel, model_driven_policy
from repro.core.profiler import Profiler, ProfilerSettings
from repro.core.sampling import grid_anchor_conditions, uniform_conditions
from repro.testbed import (
    CollocatedService,
    CollocationConfig,
    CollocationRuntime,
    default_machine,
)
from repro.workloads import get_workload

PAIRS = (("redis", "social"), ("spkmeans", "bfs"))
UTIL = 0.9
#: Equal way budget everywhere: 6 ways (2 MB each) — static layouts
#: split them privately (3+3 or UCP's pick); STA uses 2+2 private ways
#: per service plus a 2-way shared region.
TOTAL_WAYS = 6
PRIVATE_MB = 4.0
SHARED_MB = 4.0

DF_CONFIG = dict(
    windows=[(5, 5)],
    mgs_estimators=8,
    mgs_max_instances=4000,
    n_levels=1,
    forests_per_level=4,
    n_estimators=25,
)


def _p95(specs, private_mb, shared_mb, timeouts, rng=61):
    cfg = CollocationConfig(
        machine=default_machine(),
        services=[
            CollocatedService(s, timeout=t, utilization=UTIL)
            for s, t in zip(specs, timeouts)
        ],
        private_mb=private_mb,
        shared_mb=shared_mb,
    )
    run = CollocationRuntime(cfg, rng=rng).run(n_queries=2000)
    return np.array([np.percentile(s.response_times_norm, 95) for s in run.services])


def _run():
    machine = default_machine()
    rows = []
    for pair in PAIRS:
        specs = [get_workload(n) for n in pair]
        equal = _p95(specs, [6.0, 6.0], 0.0, (np.inf, np.inf))
        ucp_mb = ucp_private_mb(specs, TOTAL_WAYS, machine.way_bytes)
        ucp = _p95(specs, ucp_mb, 0.0, (np.inf, np.inf))

        profiler = Profiler(
            settings=ProfilerSettings(
                n_queries=500,
                n_windows=4,
                trace_ticks=16,
                private_mb=PRIVATE_MB,
                shared_mb=SHARED_MB,
            ),
            rng=23,
        )
        conditions = uniform_conditions(pair, n=10, rng=23) + grid_anchor_conditions(
            pair, UTIL
        )
        model = StacModel(rng=0, **DF_CONFIG).fit(profiler.profile(conditions))
        plan = model_driven_policy(model, pair, (UTIL, UTIL))
        sta = _p95(specs, PRIVATE_MB, SHARED_MB, plan.timeouts)
        for i, name in enumerate(pair):
            rows.append([f"{name}({pair[1 - i]})", equal[i], ucp[i], sta[i]])
    return rows


def test_ucp_comparison(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    print_block(
        format_table(
            ["workload (partner)", "equal split p95", "UCP p95", "model-driven STA p95"],
            rows,
            title=(
                "Extension: static partitioning (equal, UCP) vs short-term "
                "allocation at the same 6-way budget"
            ),
        )
    )
    equal = np.array([r[1] for r in rows])
    ucp = np.array([r[2] for r in rows])
    sta = np.array([r[3] for r in rows])
    # UCP's aggregate-utility objective sacrifices somebody: its loser's
    # tail is the worst in the whole table...
    assert sta.max() < ucp.max()
    assert equal.max() < ucp.max()
    # ...while its winner is the fastest (the objective it optimizes).
    assert ucp.min() <= sta.min() + 1e-9
    # STA protects the worse-off service of each pair at least as well
    # as the equal static split.
    for p in range(len(PAIRS)):
        pair_slice = slice(2 * p, 2 * p + 2)
        assert sta[pair_slice].max() <= equal[pair_slice].max() * 1.1
