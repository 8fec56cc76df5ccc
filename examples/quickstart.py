#!/usr/bin/env python3
"""Quickstart: the full short-term cache allocation pipeline in ~60 lines.

Profiles a Redis + Social collocation (Stage 1), trains the deep-forest
effective-allocation model (Stage 2), predicts response time through
queueing simulation (Stage 3), searches for a timeout vector, and
verifies the chosen policy on the ground-truth testbed.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Profiler, StacModel, model_driven_policy, uniform_conditions
from repro.analysis import ape_summary, format_table
from repro.baselines import RuntimeEvaluator, no_sharing_policy
from repro.core.profiler import ProfilerSettings

PAIR = ("redis", "social")


def main() -> None:
    # ---- Stage 1: profile runtime conditions on the testbed ------------
    print("Stage 1: profiling", PAIR, "...")
    conditions = uniform_conditions(PAIR, n=10, rng=0)
    profiler = Profiler(
        settings=ProfilerSettings(n_queries=500, n_windows=4), rng=0
    )
    dataset = profiler.profile(conditions)
    print(f"  {len(dataset)} profile rows, trace shape {dataset.traces.shape}")

    # ---- Stage 2 + 3: train the model, check held-out accuracy ---------
    train, test = dataset.split_conditions(0.6, rng=1)
    model = StacModel(rng=0).fit(train)
    pred = model.predict_rows(test)
    acc = ape_summary(pred["rt_mean"], test.y_rt_mean)
    print(
        f"Stage 2+3: held-out response-time error: "
        f"median {acc['median']:.1%}, p95 {acc['p95']:.1%}"
    )

    # ---- Policy search: pick a timeout vector for both services --------
    policy = model_driven_policy(model, PAIR, (0.9, 0.9))
    print(f"Policy search: chose timeouts {policy.timeouts} (x service time)")

    # ---- Verify on the ground-truth testbed, laid out as profiled -------
    evaluator = RuntimeEvaluator(
        dataset, PAIR, utilization=0.9, n_queries=2000, rng=42
    )
    base = evaluator.p95(no_sharing_policy(2).timeouts)
    ours = evaluator.p95(policy.timeouts)
    rows = [
        [name, base[i], ours[i], base[i] / ours[i]]
        for i, name in enumerate(PAIR)
    ]
    print(
        format_table(
            ["service", "p95 no-sharing", "p95 model-driven", "speedup"],
            rows,
            title="Verification on the testbed (response times in service-time units)",
        )
    )
    assert np.all(base / ours > 1.0), "policy should beat the baseline"
    print("OK: model-driven short-term allocation beats no-sharing.")


if __name__ == "__main__":
    main()
