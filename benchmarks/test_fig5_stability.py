"""Figure 5: random variation in deep forests vs CNNs.

Trains both model families repeatedly with different seeds on the same
profile-like data and reports min/max/std of validation accuracy and
training time.  The paper's finding: the best CNN can beat the deep
forest, but deep forests are far more stable run to run.
"""

import time

import numpy as np

from benchmarks.conftest import print_block
from repro.analysis import format_table
from repro.baselines.cnn import CNNHyperParams, CNNRegressor
from repro.forest import DeepForestRegressor

N_REPEATS = 8  # paper: 100; scaled for harness runtime


def _make_data(rng=0):
    r = np.random.default_rng(rng)
    n = 160
    traces = r.normal(0, 0.2, size=(n, 16, 12))
    y = r.uniform(0.3, 1.0, size=n)
    for i in range(n):
        traces[i, 4:8, 3:7] += y[i]  # localized EA signal
    flat = r.uniform(size=(n, 6))
    y = y + 0.2 * flat[:, 0]
    return flat, traces, y


def _run_repeats():
    flat, traces, y = _make_data()
    n_train = 110
    out = {"deep forest": [], "cnn": []}
    times = {"deep forest": [], "cnn": []}
    # One fixed split: run-to-run variation comes from model-internal
    # randomness only (initialization, bootstrap, shuffling), as in the
    # paper's repeated-training experiment.
    perm = np.random.default_rng(100).permutation(len(y))
    tr, te = perm[:n_train], perm[n_train:]
    for seed in range(N_REPEATS):

        t0 = time.perf_counter()
        df = DeepForestRegressor(
            windows=[(4, 4)],
            mgs_estimators=8,
            n_levels=1,
            forests_per_level=2,
            n_estimators=15,
            rng=seed,
        )
        df.fit(flat[tr], traces[tr], y[tr])
        times["deep forest"].append(time.perf_counter() - t0)
        err = np.median(
            np.abs(df.predict(flat[te], traces[te]) - y[te]) / y[te]
        )
        out["deep forest"].append(float(err))

        t0 = time.perf_counter()
        cnn = CNNRegressor(
            CNNHyperParams(n_filters=8, kernel=(3, 3), hidden=32, epochs=25),
            rng=seed,
        )
        cnn.fit(flat[tr], traces[tr], y[tr])
        times["cnn"].append(time.perf_counter() - t0)
        err = np.median(
            np.abs(cnn.predict(flat[te], traces[te]) - y[te]) / y[te]
        )
        out["cnn"].append(float(err))
    return out, times


def test_fig5_stability(benchmark):
    errors, times = benchmark.pedantic(_run_repeats, rounds=1, iterations=1)

    rows = []
    for name in ("deep forest", "cnn"):
        e = np.array(errors[name])
        t = np.array(times[name])
        rows.append(
            [name, e.min(), e.max(), e.std(), e.mean(), t.mean(), t.std()]
        )
    print_block(
        format_table(
            ["model", "err min", "err max", "err std", "err mean",
             "train s mean", "train s std"],
            rows,
            title=f"Figure 5: stability over {N_REPEATS} trainings (reproduced)",
            precision=4,
        )
    )

    df_err = np.array(errors["deep forest"])
    cnn_err = np.array(errors["cnn"])
    # Deep forests reliably provide low error: lower spread...
    assert df_err.std() < cnn_err.std()
    # ...and a better worst case (the paper: CNN worst ~2x DF).
    assert df_err.max() < cnn_err.max()

