"""Extension: adaptive online management under drifting load.

The conclusion positions the trained model as a direct manager.  This
bench ramps offered load from 40% to 92% and compares three managers on
the ground-truth testbed:

- no management (private cache only),
- one-shot: the timeout vector planned at the first (light) epoch and
  kept — dynaSprint-style calibration reuse,
- adaptive: re-planning each epoch from the current utilizations.
"""

import numpy as np

from benchmarks.conftest import print_block
from repro.analysis import format_table
from repro.baselines import RuntimeEvaluator
from repro.core import StacModel
from repro.core.profiler import Profiler, ProfilerSettings
from repro.core.sampling import grid_anchor_conditions, uniform_conditions
from repro.manager import AdaptiveTimeoutController, LoadScenario, OnlineManager

#: Redis gains a lot from extra ways; Spstream gains little but churns
#: the shared region — the pair whose best plan shifts with load.
PAIR = ("redis", "spstream")
N_EPOCHS = 5

DF_CONFIG = dict(
    windows=[(5, 5), (10, 10)],
    mgs_estimators=10,
    mgs_max_instances=5000,
    n_levels=1,
    forests_per_level=4,
    n_estimators=20,
)


def _unmanaged(evaluator, scenario, rng=40):
    """No cache sharing at all, epoch by epoch."""
    seeds = np.random.default_rng(rng).integers(0, 2**31, size=scenario.n_epochs)
    return [
        evaluator.p95((np.inf, np.inf), utils, seed=int(seed))
        for utils, seed in zip(scenario.epochs, seeds)
    ]


def _run():
    profiler = Profiler(
        settings=ProfilerSettings(n_queries=450, n_windows=3, trace_ticks=16),
        rng=19,
    )
    conditions = uniform_conditions(PAIR, n=10, rng=19) + grid_anchor_conditions(
        PAIR, 0.9
    )
    dataset = profiler.profile(conditions)
    model = StacModel(rng=0, **DF_CONFIG).fit(dataset)
    controller = AdaptiveTimeoutController(model=model, workloads=PAIR)
    scenario = LoadScenario.ramp(2, 0.40, 0.92, N_EPOCHS)

    evaluator = RuntimeEvaluator(dataset, PAIR, n_queries=1200, rng=41)
    adaptive = OnlineManager(controller, evaluator).run(scenario, adapt=True)
    static = OnlineManager(controller, evaluator).run(scenario, adapt=False)
    unmanaged = _unmanaged(evaluator, scenario)
    return scenario, adaptive, static, unmanaged


def test_online_manager(benchmark):
    scenario, adaptive, static, unmanaged = benchmark.pedantic(
        _run, rounds=1, iterations=1
    )

    rows = []
    for i in range(scenario.n_epochs):
        rows.append(
            [
                scenario.epochs[i][0],
                float(unmanaged[i].mean()),
                float(static[i].p95.mean()),
                float(adaptive[i].p95.mean()),
                str(adaptive[i].timeouts),
            ]
        )
    print_block(
        format_table(
            ["load", "unmanaged p95", "one-shot p95", "adaptive p95", "adaptive plan"],
            rows,
            title="Extension: online management across a load ramp (mean over services)",
        )
    )

    # Managed beats unmanaged overall.
    total_un = sum(float(u.mean()) for u in unmanaged)
    total_ad = sum(float(r.p95.mean()) for r in adaptive)
    total_st = sum(float(r.p95.mean()) for r in static)
    assert total_ad < total_un
    # Re-planning must never lose to one-shot calibration (and usually
    # wins on the loaded epochs where the light-load plan misfits).
    assert total_ad <= total_st * 1.05
    # The plan genuinely moves with load (the adaptation being tested).
    assert len({r.timeouts for r in adaptive}) > 1
