"""Extension: model-driven policies for 3-service chains.

The paper evaluates pairwise collocations (the structure Section 2's
contiguity analysis motivates), but its chain layout generalizes: a
middle service can share one region with each neighbour.  This bench
runs the full pipeline on a 3-service chain and compares the chosen
timeout vector against no-sharing and everything-shared baselines on
the ground-truth testbed.
"""

import numpy as np

from benchmarks.conftest import print_block
from repro.analysis import format_table
from repro.baselines import RuntimeEvaluator
from repro.core import StacModel, model_driven_policy
from repro.core.profiler import Profiler, ProfilerSettings
from repro.core.sampling import grid_anchor_conditions, uniform_conditions

CHAIN = ("redis", "social", "knn")
UTIL = 0.9

DF_CONFIG = dict(
    windows=[(5, 5), (10, 10)],
    mgs_estimators=10,
    mgs_max_instances=5000,
    n_levels=1,
    forests_per_level=4,
    n_estimators=20,
)


def _run():
    profiler = Profiler(
        settings=ProfilerSettings(n_queries=450, n_windows=3, trace_ticks=16),
        rng=17,
    )
    conditions = uniform_conditions(CHAIN, n=8, rng=17) + grid_anchor_conditions(
        CHAIN, UTIL, timeout_grid=(0.0, 1.0, 4.0)
    )
    dataset = profiler.profile(conditions)
    model = StacModel(rng=0, **DF_CONFIG).fit(dataset)
    chosen = model_driven_policy(
        model, CHAIN, (UTIL,) * 3, timeout_grid=(0.0, 1.0, 4.0)
    )

    evaluator = RuntimeEvaluator(
        dataset, CHAIN, utilization=UTIL, n_queries=2000, rng=88
    )
    results = {
        "no sharing": evaluator.p95((np.inf,) * 3),
        "always shared": evaluator.p95((0.0,) * 3),
        "model-driven": evaluator.p95(chosen.timeouts),
    }
    return chosen, results


def test_chain_policies(benchmark):
    chosen, results = benchmark.pedantic(_run, rounds=1, iterations=1)

    base = results["no sharing"]
    rows = [
        [name] + [float(base[i] / p95[i]) for i in range(3)]
        for name, p95 in results.items()
    ]
    print_block(
        format_table(
            ["policy"] + [f"{w} speedup" for w in CHAIN],
            rows,
            title=(
                "Extension: 3-service chain — p95 speedup over no-sharing "
                f"(chosen timeouts: {chosen.timeouts})"
            ),
        )
    )

    ours = base / results["model-driven"]
    shared = base / results["always shared"]
    # The chosen vector helps overall and never sacrifices a service.
    assert np.median(ours) > 1.1
    assert ours.min() > 0.9
    # It at least matches naive full sharing on the worst-off service.
    assert ours.min() >= shared.min() - 0.05
