"""The shared sorted-scan split search against the per-feature oracle.

``RegressionTree._best_split`` scores every candidate feature in one
vectorised pass (``repro.forest.tree._scan_sorted``).  It must pick the
same ``(feature, threshold)`` as the per-feature loop it replaced
(``tree_oracle.best_split_oracle``) — floats bit for bit, ties broken
the same way — and draw the same candidate features from the rng.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.dtree import DecisionTreeBaseline
from repro.forest import RandomForestRegressor, RegressionTree

from .test_parallel import trees_equal
from .tree_oracle import best_split_oracle

#: Raw values that exercise ties, signed zeros and non-finite entries.
_X_POOL = np.array(
    [-np.inf, -1.0, -0.0, 0.0, 0.1, 0.2, 0.1 + 0.2, 0.3, 1e300, np.inf, np.nan]
)
#: Targets whose partial sums round (0.1 + 0.2 != 0.3), so different
#: cuts and duplicated columns produce exactly equal losses.
_Y_POOL = np.array([0.1, 0.2, 0.3, 0.7, 1.0, -1.0, 3.0])
_Y_EXTREME = np.array([1.0, -2.0, 1e154, -1e200, np.inf, -np.inf, np.nan])


def _column(r, kind, X, j):
    n = X.shape[0]
    if kind == "pool":
        return r.choice(_X_POOL, size=n)
    if kind == "ints":
        return r.integers(0, 4, size=n).astype(float)
    if kind == "const":
        return np.full(n, r.choice(_X_POOL))
    if kind == "dup" and j > 0:
        return X[:, r.integers(0, j)].copy()
    return r.normal(size=n)


def _node(seed, n, d, y_kind):
    """A node's data: training matrix, its row subset and targets."""
    r = np.random.default_rng(seed)
    n_rows = n + int(r.integers(0, 5))
    X = np.empty((n_rows, d))
    for j in range(d):
        kind = r.choice(["pool", "ints", "const", "dup", "normal"])
        X[:, j] = _column(r, kind, X, j)
    if y_kind == "pool":
        y = r.choice(_Y_POOL, size=n_rows)
    elif y_kind == "extreme":
        y = r.choice(_Y_EXTREME, size=n_rows)
    else:
        y = r.normal(size=n_rows)
    # Bootstrap-like rows: shuffled, sometimes repeated.
    idx = (
        r.integers(0, n_rows, size=n)
        if r.random() < 0.5
        else r.permutation(n_rows)[:n]
    )
    return X, y[idx], idx


def _same_float(a, b) -> bool:
    if np.isnan(a) and np.isnan(b):
        return True
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _split(tree, X, yn, idx):
    """``tree._best_split`` on one node, set up as ``fit`` sets it up."""
    tree._n_split_features = tree._n_candidate_features(X.shape[1])
    return tree._best_split(X, yn, idx)


def _assert_same_split(X, yn, idx, max_features, msl, seed):
    shared = RegressionTree(
        max_features=max_features, min_samples_leaf=msl, rng=seed
    )
    oracle = RegressionTree(
        max_features=max_features, min_samples_leaf=msl, rng=seed
    )
    with np.errstate(all="ignore"):
        got = _split(shared, X, yn, idx)
        want = best_split_oracle(oracle, X, yn, idx)
    if want is None:
        assert got is None
    else:
        assert got is not None and got[0] == want[0]
        assert _same_float(got[1], want[1]), (got, want)
    assert shared._rng.bit_generator.state == oracle._rng.bit_generator.state


class TestScanMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 200),
        d=st.integers(1, 8),
        msl=st.integers(1, 3),
        mf=st.sampled_from([None, "sqrt", 1, 2, 5]),
        y_kind=st.sampled_from(["pool", "normal", "extreme"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_split_and_rng_use(self, n, d, msl, mf, y_kind, seed):
        X, yn, idx = _node(seed, n, d, y_kind)
        _assert_same_split(X, yn, idx, mf, msl, seed)

    def test_duplicate_columns_tie_to_earliest_feature(self):
        r = np.random.default_rng(0)
        col = r.normal(size=40)
        X = np.stack([np.zeros(40), col, col, col], axis=1)
        y = r.normal(size=40)
        idx = np.arange(40)
        split = _split(RegressionTree(rng=0), X, y, idx)
        assert split[0] == 1
        _assert_same_split(X, y, idx, None, 1, 0)

    def test_constant_and_single_row_nodes(self):
        X = np.full((6, 3), 2.0)
        y = np.arange(6.0)
        assert _split(RegressionTree(rng=0), X, y, np.arange(6)) is None
        assert _split(RegressionTree(rng=0), X, y[:1], np.arange(1)) is None
        _assert_same_split(X, y, np.arange(6), None, 1, 0)

    def test_infinite_neighbours_give_nan_threshold(self):
        X = np.array([[-np.inf], [np.inf], [-np.inf], [np.inf]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        with np.errstate(invalid="ignore"):
            f, thr = _split(RegressionTree(rng=0), X, y, np.arange(4))
        assert f == 0 and np.isnan(thr)
        _assert_same_split(X, y, np.arange(4), None, 1, 0)

    def test_column_with_nan_loss_is_skipped(self):
        # Sum of y^2 overflows in feature 0's sort order only (four
        # sub-ulp squares add up before the near-max one), so feature 0
        # scores NaN and inf losses; the oracle skips it for feature 1.
        big = np.sqrt(np.finfo(float).max)
        small = np.sqrt(0.45 * 2.0**971)  # 2**971 = ulp of the max
        y = np.array([big, small, small, small, small, small])
        X = np.stack([[4.0, 0, 1, 2, 3, 5], np.arange(6.0)], axis=1)
        with np.errstate(all="ignore"):
            split = _split(RegressionTree(rng=0), X, y, np.arange(6))
        assert split == (1, 1.5)
        _assert_same_split(X, y, np.arange(6), None, 1, 0)


class TestFittedTreesMatchOracle:
    """Whole ``splitter="best"`` fits, old loop patched in vs shared scan."""

    def _pair(self, monkeypatch, fit):
        shared = fit()
        with monkeypatch.context() as m:
            m.setattr(RegressionTree, "_best_split", best_split_oracle)
            oracle = fit()
        return shared, oracle

    @pytest.mark.parametrize("max_features", [None, "sqrt", 3])
    def test_single_trees(self, monkeypatch, max_features):
        r = np.random.default_rng(11)
        X = np.round(r.normal(size=(150, 8)), 1)  # many ties
        X[:, 5] = 1.0  # a constant column
        y = np.round(X[:, 0] * X[:, 1] + r.normal(0, 0.3, 150), 2)

        def fit():
            return RegressionTree(
                max_features=max_features, min_samples_leaf=2, rng=5
            ).fit(X, y)

        shared, oracle = self._pair(monkeypatch, fit)
        assert shared.n_nodes > 1
        assert trees_equal(shared, oracle)

    def test_decision_tree_baseline(self, monkeypatch):
        r = np.random.default_rng(3)
        X = r.uniform(size=(160, 60))
        y = np.sin(6 * X[:, 0]) + X[:, 1] + r.normal(0, 0.1, 160)
        shared, oracle = self._pair(
            monkeypatch, lambda: DecisionTreeBaseline(rng=0).fit(X, y)
        )
        assert trees_equal(shared._tree, oracle._tree)

    def test_random_forest(self, monkeypatch):
        r = np.random.default_rng(4)
        X = r.uniform(size=(200, 6))
        y = 10 * np.sin(np.pi * X[:, 0] * X[:, 1]) + r.normal(0, 0.2, 200)
        shared, oracle = self._pair(
            monkeypatch,
            lambda: RandomForestRegressor(n_estimators=4, rng=9).fit(X, y),
        )
        assert all(
            trees_equal(a, b) for a, b in zip(shared.trees_, oracle.trees_)
        )
