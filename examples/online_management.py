#!/usr/bin/env python3
"""Online management: re-planning timeouts as load drifts.

The paper's conclusion: "Given 30 minutes to profile workloads, our
approach can be used directly to manage short-term allocation."  This
example profiles once, then manages a Redis + Spstream collocation
through a diurnal load pattern, re-planning the timeout vector each
epoch and comparing against the one-shot plan a dynaSprint-style
calibration would freeze.

Run:  python examples/online_management.py
"""

from repro import Profiler, StacModel, uniform_conditions
from repro.analysis import format_table
from repro.baselines import RuntimeEvaluator
from repro.core.profiler import ProfilerSettings
from repro.core.sampling import grid_anchor_conditions
from repro.manager import AdaptiveTimeoutController, LoadScenario, OnlineManager

PAIR = ("redis", "spstream")


def main() -> None:
    print("profiling", PAIR, "(one offline campaign)...")
    profiler = Profiler(
        settings=ProfilerSettings(n_queries=450, n_windows=3), rng=7
    )
    conditions = uniform_conditions(PAIR, n=10, rng=7) + grid_anchor_conditions(
        PAIR, utilization=0.9
    )
    dataset = profiler.profile(conditions)
    model = StacModel(rng=0).fit(dataset)

    controller = AdaptiveTimeoutController(model=model, workloads=PAIR)
    scenario = LoadScenario.diurnal(2, low=0.4, high=0.92, n_epochs=6)

    print("managing a diurnal load pattern (6 epochs)...")
    # The testbed truth runs on the layout the campaign profiled.
    evaluator = RuntimeEvaluator(dataset, PAIR, n_queries=1200, rng=1)
    adaptive = OnlineManager(controller, evaluator).run(scenario, adapt=True)
    one_shot = OnlineManager(controller, evaluator).run(scenario, adapt=False)

    rows = []
    for a, s in zip(adaptive, one_shot):
        rows.append(
            [
                a.epoch,
                a.utilizations[0],
                str(a.timeouts),
                float(a.p95.mean()),
                float(s.p95.mean()),
            ]
        )
    print(
        format_table(
            ["epoch", "load", "adaptive plan", "adaptive p95", "one-shot p95"],
            rows,
            title="Diurnal management (p95 mean over services, service-time units)",
        )
    )
    total_a = sum(float(r.p95.mean()) for r in adaptive)
    total_s = sum(float(r.p95.mean()) for r in one_shot)
    print(
        f"\ntotal p95 across the day: adaptive {total_a:.2f} vs one-shot "
        f"{total_s:.2f} ({total_s / total_a:.2f}x)"
    )
    print(f"distinct plans used: {controller.plans_computed}")


if __name__ == "__main__":
    main()
