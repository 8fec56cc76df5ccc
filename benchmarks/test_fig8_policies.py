"""Figure 8: p95-response-time speedup of competing allocation policies.

Four collocations spanning Redis, Spark, Rodinia and the Social
microservice benchmark, all normalized to the no-cache-sharing
baseline, at 90% arrival rate (Section 5.2).  Policies compared:

- static allocation (share fully or keep private, whichever is best),
- dCat: workload-aware shared-cache assignment [31],
- dynaSprint: timeouts calibrated at low arrival rate [12],
- simple-ML-driven timeouts (random forest in place of the deep forest),
- our model-driven timeouts with SLO matching.

Paper's shapes: our approach ~2x median speedup over no-sharing (up to
2.6x), and ~1.2-1.3x over dCat/dynaSprint.
"""

import numpy as np

from benchmarks.conftest import print_block
from repro.analysis import format_table
from repro.baselines import (
    RuntimeEvaluator,
    dcat_policy,
    dynasprint_policy,
    no_sharing_policy,
    static_best_policy,
)
from repro.core import StacModel
from repro.core.policy_search import model_driven_policy
from repro.core.profiler import Profiler, ProfilerSettings
from repro.core.sampling import grid_anchor_conditions, uniform_conditions

COLLOCATIONS = (
    ("redis", "social"),
    ("spkmeans", "knn"),
    ("jacobi", "bfs"),
    ("spstream", "kmeans"),
)
UTIL = 0.9

DF_CONFIG = dict(
    windows=[(5, 5), (10, 10)],
    mgs_estimators=12,
    mgs_max_instances=6000,
    n_levels=1,
    forests_per_level=4,
    n_estimators=25,
)


def _policies_for_pair(pair):
    profiler = Profiler(
        settings=ProfilerSettings(n_queries=500, n_windows=4, trace_ticks=20),
        rng=21,
    )
    # Uniform coverage plus the policy grid's corner settings (which
    # random draws essentially never produce, e.g. both timeouts 0).
    conditions = uniform_conditions(pair, n=10, rng=21) + grid_anchor_conditions(
        pair, UTIL
    )
    dataset = profiler.profile(conditions)

    ours = StacModel(rng=0, **DF_CONFIG).fit(dataset)
    simple = StacModel(rng=0, learner="random_forest").fit(dataset)

    evaluator = RuntimeEvaluator(
        dataset, pair, utilization=UTIL, n_queries=2500, rng=77
    )
    policies = [
        static_best_policy(evaluator),
        dcat_policy(evaluator),
        dynasprint_policy(evaluator),
        model_driven_policy(simple, pair, (UTIL, UTIL), name="simple-ml"),
        model_driven_policy(ours, pair, (UTIL, UTIL), name="model-driven"),
    ]
    base_p95 = evaluator.p95(no_sharing_policy(2).timeouts)
    out = {}
    for pol in policies:
        p95 = evaluator.p95(pol.timeouts)
        out[pol.name if not pol.name.startswith("static") else "static"] = (
            base_p95 / p95
        )
    return out


def _run():
    results = {}
    for pair in COLLOCATIONS:
        results[pair] = _policies_for_pair(pair)
    return results


def test_fig8_policies(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)

    policy_names = ["static", "dcat", "dynasprint", "simple-ml", "model-driven"]
    rows = []
    speedups = {p: [] for p in policy_names}
    for pair, per_policy in results.items():
        for i, svc in enumerate(pair):
            row = [f"{svc}({pair[1 - i]})"]
            for p in policy_names:
                row.append(float(per_policy[p][i]))
                speedups[p].append(float(per_policy[p][i]))
            rows.append(row)
    rows.append(
        ["MEDIAN"] + [float(np.median(speedups[p])) for p in policy_names]
    )
    print_block(
        format_table(
            ["workload (partner)"] + policy_names,
            rows,
            title=(
                "Figure 8: p95 speedup over no-cache-sharing baseline "
                "(reproduced)"
            ),
        )
    )

    med = {p: float(np.median(speedups[p])) for p in policy_names}
    # Our policy gives a solid median speedup over the baseline...
    assert med["model-driven"] > 1.3
    # ...and at least matches every competing approach.
    for p in ("static", "dcat", "dynasprint", "simple-ml"):
        assert med["model-driven"] >= med[p] - 0.02, (p, med)
    # Per Fig. 8e simple ML is competitive with dCat for most workloads.
    assert med["simple-ml"] >= med["dcat"] - 0.1
    # No collocated service is sacrificed: worst-case speedup stays
    # reasonable under our policy (the SLO matching step's purpose).
    assert min(speedups["model-driven"]) > 0.8
