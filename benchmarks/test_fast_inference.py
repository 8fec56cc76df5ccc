"""Extension: Bolt-style packed inference vs naive tree traversal.

Reference [24] of the paper is the authors' fast random-forest
inference engine ("Bolt", Middleware '22); inference latency matters
here because online policy exploration queries the deep forest per
candidate timeout vector with small batches.  The packed layout
(contiguous node arrays, level-synchronous gathers, leaf self-loops)
wins exactly where Bolt targets: small-batch, latency-sensitive
inference.

A second row has the shape of the Stage 2 multi-grain scanning window
forests that dominate online planning: 4 trees of depth 12 walked over
thousands of 25-feature window instances.  Every timed prediction is
also checked bit for bit (``np.array_equal``) against the per-tree
oracle.  ``BENCH_SMOKE=1`` (used by CI) times fewer repeats on a
smaller MGS-shaped batch; the asserts are the same.
"""

import os
import time

import numpy as np

from benchmarks.conftest import print_block
from repro.analysis import format_table
from repro.forest import PackedForest, RandomForestRegressor
from tests.test_forest.forest_oracle import predict_oracle

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
BATCHES = (8, 32, 128, 2000)
REPEATS = 3 if SMOKE else 10
#: Window instances of the MGS-shaped row.
MGS_ROWS = 1000 if SMOKE else 5000


def _setup():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(600, 25))
    y = np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2]
    forest = RandomForestRegressor(n_estimators=100, max_depth=10, rng=0).fit(X, y)
    return forest, PackedForest.from_forest(forest), rng


def _naive_predict(forest, X):
    """Per-tree traversal: the equivalence oracle of the packed path,
    which every ``_BaseForest.predict`` now runs at any batch size."""
    return predict_oracle(forest, X)


def _time(fn, repeats=REPEATS):
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats


def _run():
    forest, packed, rng = _setup()
    rows = []
    for batch in BATCHES:
        Xt = rng.uniform(size=(batch, 25))
        assert np.array_equal(packed.predict(Xt), _naive_predict(forest, Xt))
        naive = _time(lambda: _naive_predict(forest, Xt))
        fast = _time(lambda: packed.predict(Xt))
        rows.append([batch, naive * 1e3, fast * 1e3, naive / fast])
    return rows


def _run_mgs_shaped():
    """4 deep trees over many window instances (the MGS window forests)."""
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(4000, 25))
    y = np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.1 * rng.standard_normal(4000)
    forest = RandomForestRegressor(n_estimators=4, max_depth=12, rng=1).fit(X, y)
    packed = PackedForest.from_forest(forest)
    Xt = rng.uniform(size=(MGS_ROWS, 25))
    assert np.array_equal(packed.predict(Xt), _naive_predict(forest, Xt))
    naive = _time(lambda: _naive_predict(forest, Xt))
    fast = _time(lambda: packed.predict(Xt))
    depth = max(t.depth for t in forest.trees_)
    return [f"{MGS_ROWS} (4 trees, depth {depth})", naive * 1e3, fast * 1e3, naive / fast]


def test_fast_inference(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    mgs_row = _run_mgs_shaped()
    print_block(
        format_table(
            ["batch size", "naive (ms)", "packed (ms)", "speedup"],
            rows + [mgs_row],
            title="Extension: Bolt-style packed forest inference (100 trees; "
            "last row MGS-shaped)",
        )
    )
    by_batch = {r[0]: r[3] for r in rows}
    # Small-batch latency is where packing pays off (Bolt's regime).
    assert by_batch[8] > 5.0
    assert by_batch[32] > 2.0
    # It must never be a large regression at big batches.
    assert by_batch[2000] > 0.7
