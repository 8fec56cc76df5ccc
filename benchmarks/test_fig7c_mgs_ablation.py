"""Figure 7c: multi-grained scanning ablation.

Studies the four knobs of the paper's figure on one collocation:
counter ordering (spatial vs shuffled), MGS window sizes, counter
sampling rate, and forest size (number of estimators).  Expected
shapes: removing spatial ordering hurts, shrinking windows hurts,
slower sampling costs a little, and tiny forests degrade toward the
queue-model baseline.
"""

import numpy as np

from benchmarks.conftest import print_block
from repro.analysis import format_table, median_ape
from repro.core import EAModel, ProfileDataset
from repro.core.profile_vec import ProfileRow
from repro.core.profiler import Profiler, ProfilerSettings
from repro.core.sampling import uniform_conditions
from repro.counters.events import N_COUNTERS

PAIR = ("redis", "social")

BASE = dict(
    windows=[(5, 5), (10, 10)],
    mgs_estimators=12,
    mgs_max_instances=6000,
    n_levels=1,
    forests_per_level=4,
    n_estimators=25,
)


def _profile(sampling_hz, rng=3):
    conditions = uniform_conditions(PAIR, n=14, rng=rng)
    profiler = Profiler(
        settings=ProfilerSettings(
            n_queries=500, n_windows=4, trace_ticks=20, sampling_hz=sampling_hz
        ),
        rng=rng,
    )
    return profiler.profile(conditions)


def _shuffle_counters(dataset, rng=0):
    """Destroy spatial locality with one fixed permutation per 29-block."""
    perm = np.random.default_rng(rng).permutation(N_COUNTERS)
    rows = []
    for r in dataset.rows:
        t = r.trace.copy()
        blocks = t.shape[0] // N_COUNTERS
        for b in range(blocks):
            sl = slice(b * N_COUNTERS, (b + 1) * N_COUNTERS)
            t[sl] = t[sl][perm]
        rows.append(
            ProfileRow(
                condition=r.condition,
                service_idx=r.service_idx,
                window_idx=r.window_idx,
                x_static=r.x_static,
                x_dynamic=r.x_dynamic,
                trace=t,
                ea=r.ea,
                rt_mean=r.rt_mean,
                rt_p95=r.rt_p95,
            )
        )
    return ProfileDataset(rows=rows)


def _ea_error(train, test, **overrides):
    params = dict(BASE)
    params.update(overrides)
    model = EAModel(learner="deep_forest", rng=0, **params).fit(train)
    return median_ape(model.predict_dataset(test), test.y_ea)


def _run():
    ds = _profile(sampling_hz=1.0)
    train, test = ds.split_conditions(0.6, rng=0)

    results = {}
    results["full model (spatial, 5x5+10x10, 1 Hz, 25 est)"] = _ea_error(train, test)
    results["shuffled counter ordering"] = _ea_error(
        _shuffle_counters(train), _shuffle_counters(test)
    )
    results["small windows only (3x3)"] = _ea_error(
        train, test, windows=[(3, 3)]
    )
    results["small forests (3 estimators)"] = _ea_error(
        train, test, n_estimators=3, mgs_estimators=2
    )

    slow = _profile(sampling_hz=0.2, rng=3)
    tr_s, te_s = slow.split_conditions(0.6, rng=0)
    results["sampling every 5 s (0.2 Hz)"] = _ea_error(tr_s, te_s)
    return results


def test_fig7c_mgs_ablation(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    print_block(
        format_table(
            ["MGS setting", "EA median APE"],
            [[k, v] for k, v in results.items()],
            title="Figure 7c: multi-grained scanning ablation (reproduced)",
            precision=4,
        )
    )
    full = results["full model (spatial, 5x5+10x10, 1 Hz, 25 est)"]
    # The figure's shapes: every ablation is no better than the full model.
    assert full <= results["shuffled counter ordering"] * 1.05
    assert full <= results["small windows only (3x3)"] * 1.05
    assert full <= results["small forests (3 estimators)"] * 1.05
    assert full <= results["sampling every 5 s (0.2 Hz)"] * 1.2
