"""Serial vs pooled forest training at MGS scale.

The contract, verified end to end:

- the process pool must produce *bit-identical* trees to the serial fit
  (the pool only changes who grows each tree, never what is grown) —
  asserted in every mode, including smoke;
- the splitter's vectorised sorted scan must grow the same tree
  as the per-feature loop it replaced (``tests/test_forest/
  tree_oracle.py``) on a single-tree baseline over every feature —
  also asserted in every mode;
- the production tree build must grow the same trees as the preorder
  oracle build (``tree_oracle.build_oracle``) on the two tree shapes of
  the perfbench ``build`` workload — asserted in every mode, with the
  speedup printed.

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
from tests.test_forest.tree_oracle import best_split_oracle, build_oracle

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
N_SAMPLES = 1500 if SMOKE else 6000
N_FEATURES = 25
N_TREES = 8 if SMOKE else 24
#: The "tree" learner's shape: profiled rows x (condition features +
#: flattened cache-usage traces), every feature a split candidate.
SCAN_ROWS, SCAN_FEATURES = 160, 1184
#: The perfbench ``build`` workload's two tree shapes: a cascade level's
#: random-forest trees (few rows, over a thousand columns) and an MGS window
#: forest's depth-capped trees.
BUILD_SHAPES = (
    ("cascade-like", 64, 1431, dict(max_features="sqrt", min_samples_leaf=2)),
    (
        "MGS-like",
        600,
        25,
        dict(max_features="sqrt", max_depth=12, min_samples_leaf=3),
    ),
)
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


def _grow_bootstrapped(X, y, params, n_trees):
    """``n_trees`` trees, each on its own bootstrap sample, timed."""
    t0 = time.perf_counter()
    trees = []
    for seed in range(n_trees):
        rows = np.random.default_rng(seed).integers(0, X.shape[0], X.shape[0])
        trees.append(RegressionTree(rng=seed, **params).fit(X[rows], y[rows]))
    return trees, time.perf_counter() - t0


def test_tree_build_matches_oracle(monkeypatch):
    """``build``'s tree shapes: the production build vs the preorder
    oracle build patched in.  Same trees, timed both ways."""
    reps = 1 if SMOKE else 5
    n_trees = 2 if SMOKE else 8
    rows, record = [], {}
    for name, n, d, params in BUILD_SHAPES:
        r = np.random.default_rng(n)
        X = r.uniform(size=(n, d))
        y = np.sin(6 * X[:, 0]) + X[:, 1] * X[:, 2] + r.normal(0, 0.1, n)
        t_lean = t_oracle = np.inf
        for _ in range(reps):
            lean, t = _grow_bootstrapped(X, y, params, n_trees)
            t_lean = min(t_lean, t)
            with monkeypatch.context() as m:
                m.setattr(RegressionTree, "_build", build_oracle)
                oracle, t = _grow_bootstrapped(X, y, params, n_trees)
            t_oracle = min(t_oracle, t)
            assert all(_tree_identical(a, b) for a, b in zip(lean, oracle))
        rows.append(
            [f"{name} n={n} d={d}", t_lean * 1e3, t_oracle * 1e3, t_oracle / t_lean]
        )
        key = name.split("-")[0].lower()
        record[f"{key}_lean_s"] = round(t_lean, 6)
        record[f"{key}_oracle_s"] = round(t_oracle, 6)
        record[f"{key}_speedup"] = round(t_oracle / t_lean, 3)
    print_block(
        format_table(
            ["tree shape", "lean ms", "oracle ms", "speedup"],
            rows,
            title=(
                f"Tree build, {n_trees} bootstrapped trees per shape, "
                f"best of {reps}" + (" [smoke]" if SMOKE else "")
            ),
        )
    )
    if not SMOKE:
        _record(
            {
                "bench": "tree_build",
                "timestamp": int(time.time()),
                "n_trees": n_trees,
                **record,
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
