"""Serial vs pooled forest training at MGS scale.

The contract, verified end to end:

- the process pool must produce *bit-identical* trees to the serial fit
  (the pool only changes who grows each tree, never what is grown) —
  asserted in every mode, including smoke;
- the splitter's vectorised sorted scan must grow the same tree
  as the per-feature loop it replaced (``tests/test_forest/
  tree_oracle.py``) on a single-tree baseline over every feature —
  also asserted in every mode.

The workload mirrors a multi-grained-scanner window forest fit — the
training bottleneck of the Figure 6 campaign: thousands of sliding
window instances, two dozen features, depth-capped trees.

Each full (non-smoke) run appends its timing summary to
``BENCH_forest_training.json`` at the repo root.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import print_block
from repro.analysis import format_table
from repro.baselines.dtree import DecisionTreeBaseline
from repro.forest import RandomForestRegressor, RegressionTree
from tests.test_forest.tree_oracle import best_split_oracle

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
N_SAMPLES = 1500 if SMOKE else 6000
N_FEATURES = 25
N_TREES = 8 if SMOKE else 24
#: The "tree" learner's shape: profiled rows x (condition features +
#: flattened cache-usage traces), every feature a split candidate.
SCAN_ROWS, SCAN_FEATURES = 160, 1184
RESULTS_JSON = Path(__file__).resolve().parents[1] / "BENCH_forest_training.json"


def _mgs_like_dataset(rng):
    """Friedman-style nonlinear target at MGS window-instance scale."""
    X = rng.uniform(size=(N_SAMPLES, N_FEATURES))
    y = (
        10 * np.sin(np.pi * X[:, 0] * X[:, 1])
        + 20 * (X[:, 2] - 0.5) ** 2
        + 10 * X[:, 3]
        + 5 * X[:, 4]
        + rng.normal(0, 0.5, N_SAMPLES)
    )
    return X, y


def _split_search_dataset(rng):
    X = rng.uniform(size=(SCAN_ROWS, SCAN_FEATURES))
    y = np.sin(6 * X[:, 0]) + X[:, 1] * X[:, 2] + rng.normal(0, 0.1, SCAN_ROWS)
    return X, y


def _fit_tree_best_of(X, y, reps):
    """Best-of-``reps`` wall clock of one ``DecisionTreeBaseline`` fit."""
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        tree = DecisionTreeBaseline(rng=0).fit(X, y)
        best = min(best, time.perf_counter() - t0)
    return tree, best


def _fit(X, y, n_jobs):
    f = RandomForestRegressor(
        n_estimators=N_TREES,
        max_depth=12,
        min_samples_leaf=3,
        n_jobs=n_jobs,
        rng=0,
    )
    t0 = time.perf_counter()
    f.fit(X, y)
    return f, time.perf_counter() - t0


def _fit_best_of(X, y, n_jobs, reps):
    """Best-of-``reps`` wall clock (same fitted forest every rep — the
    fit is deterministic, so only the clock varies)."""
    forest, best = _fit(X, y, n_jobs)
    for _ in range(reps - 1):
        _, t = _fit(X, y, n_jobs)
        best = min(best, t)
    return forest, best


def _tree_identical(a, b) -> bool:
    return (
        np.array_equal(a._feature_a, b._feature_a)
        and np.array_equal(a._threshold_a, b._threshold_a)
        and np.array_equal(a._value_a, b._value_a)
        and np.array_equal(a._left_a, b._left_a)
        and np.array_equal(a._right_a, b._right_a)
    )


def _trees_identical(fa, fb) -> bool:
    return len(fa.trees_) == len(fb.trees_) and all(
        _tree_identical(a, b) for a, b in zip(fa.trees_, fb.trees_)
    )


def _record(row: dict) -> None:
    history = []
    if RESULTS_JSON.exists():
        try:
            history = json.loads(RESULTS_JSON.read_text())
        except (json.JSONDecodeError, OSError):
            history = []
    history.append(row)
    RESULTS_JSON.write_text(json.dumps(history, indent=2) + "\n")


def test_split_search_matches_loop(monkeypatch):
    """One tree over every feature: the shared sorted scan vs the old
    per-feature loop patched back in.  Same tree, timed both ways."""
    X, y = _split_search_dataset(np.random.default_rng(2))
    reps = 1 if SMOKE else 3
    scan_tree, t_scan = _fit_tree_best_of(X, y, reps)
    with monkeypatch.context() as m:
        m.setattr(RegressionTree, "_best_split", best_split_oracle)
        loop_tree, t_loop = _fit_tree_best_of(X, y, reps)

    assert scan_tree._tree.n_nodes > 1
    assert _tree_identical(scan_tree._tree, loop_tree._tree)

    rows = [
        ["sorted scan, all features at once", t_scan * 1e3, t_loop / t_scan],
        ["per-feature loop (oracle)", t_loop * 1e3, 1.0],
    ]
    print_block(
        format_table(
            ["split search", "ms (best of %d)" % reps, "speedup vs loop"],
            rows,
            title=(
                f"Exact split search, one tree, n={SCAN_ROWS} "
                f"d={SCAN_FEATURES}, max_features=None"
                + (" [smoke]" if SMOKE else "")
            ),
        )
    )
    if not SMOKE:
        _record(
            {
                "bench": "split_search",
                "timestamp": int(time.time()),
                "n_samples": SCAN_ROWS,
                "n_features": SCAN_FEATURES,
                "scan_s": round(t_scan, 6),
                "loop_s": round(t_loop, 6),
                "speedup_scan": round(t_loop / t_scan, 3),
            }
        )


def test_forest_training_scaling():
    n_cpus = len(os.sched_getaffinity(0))
    # At least 2 workers even on tiny boxes, so the identity asserts
    # always exercise the real process pool.
    pool_jobs = max(2, min(4, n_cpus))
    X, y = _mgs_like_dataset(np.random.default_rng(0))
    Xt, yt = _mgs_like_dataset(np.random.default_rng(1))
    reps = 1 if SMOKE else 3

    serial, t_serial = _fit_best_of(X, y, 1, reps)
    pooled, t_pool = _fit_best_of(X, y, pool_jobs, reps)

    # Identity assert: always on, every mode.  The pool must never
    # change the fitted model.
    assert _trees_identical(serial, pooled)

    mse = float(np.mean((serial.predict(Xt) - yt) ** 2))
    speedup_pool = t_serial / t_pool
    rows = [
        ["serial", t_serial * 1e3, 1.0, mse],
        ["%d jobs" % pool_jobs, t_pool * 1e3, speedup_pool, mse],
    ]
    print_block(
        format_table(
            ["training path", "ms (best of %d)" % reps, "speedup vs serial", "held-out MSE"],
            rows,
            title=(
                f"Forest training, n={N_SAMPLES} d={N_FEATURES} "
                f"trees={N_TREES}, {n_cpus} CPU(s)"
                + (" [smoke]" if SMOKE else "")
            ),
        )
    )

    if not SMOKE:
        _record(
            {
                "bench": "forest_training_scaling",
                "timestamp": int(time.time()),
                "n_samples": N_SAMPLES,
                "n_features": N_FEATURES,
                "n_trees": N_TREES,
                "n_cpus": n_cpus,
                "pool_jobs": pool_jobs,
                "exact_serial_s": round(t_serial, 6),
                "exact_pool_s": round(t_pool, 6),
                "speedup_pool": round(speedup_pool, 3),
                "mse_exact": round(mse, 6),
            }
        )
