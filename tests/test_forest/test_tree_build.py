"""The production tree build against the preorder whole-tree oracle.

``RegressionTree._build`` grows each tree with a lean split scan, leaf
means by ``add.reduce`` and no impurity bookkeeping.  It must grow the
tree the previous build grew (``tree_oracle.build_oracle``): the same
node arrays bit for bit, the same depth, and the same rng use — for
both splitters and every stopping rule, alone and inside every forest
that is built from these trees.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.forest import (
    CascadeForest,
    CompletelyRandomForestRegressor,
    DeepForestRegressor,
    MultiGrainScanner,
    RandomForestRegressor,
    RegressionTree,
)
from repro.forest import parallel as parallel_mod

from .test_parallel import trees_equal
from .test_split_scan import _node
from .tree_oracle import build_oracle


def _fit_both(X, y, seed, **params):
    """The same tree grown by the production build and by the oracle."""
    tree = RegressionTree(rng=seed, **params).fit(X, y)
    oracle = RegressionTree(rng=seed, **params)
    oracle._build = types.MethodType(build_oracle, oracle)
    oracle.fit(X, y)
    return tree, oracle


def _assert_same_tree(tree, oracle):
    assert trees_equal(tree, oracle)
    assert tree.depth == oracle.depth
    assert tree._rng.bit_generator.state == oracle._rng.bit_generator.state


class TestTreeMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 150),
        d=st.integers(1, 12),
        splitter=st.sampled_from(["best", "random"]),
        max_features=st.sampled_from([None, "sqrt", 1, 3, 20]),
        max_depth=st.sampled_from([None, 1, 2, 5]),
        msl=st.integers(1, 3),
        y_kind=st.sampled_from(["pool", "normal", "extreme"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_tree_bit_for_bit(
        self, n, d, splitter, max_features, max_depth, msl, y_kind, seed
    ):
        # Tie-heavy, signed-zero and non-finite feature columns; rows
        # shuffled or repeated like a bootstrap sample.
        X, yn, idx = _node(seed, n, d, y_kind)
        # ``fit`` rejects non-finite targets; the finite extremes still
        # overflow the prefix sums into inf and NaN losses.
        yn = np.nan_to_num(yn, nan=0.0, posinf=1e300, neginf=-1e300)
        X = X[idx]
        if splitter == "random":
            # A random cut draws uniform(min, max), which overflows on an
            # infinite range, in the production build and the oracle alike.
            X[np.isinf(X)] = np.copysign(1e300, X[np.isinf(X)])
        with np.errstate(all="ignore"):
            tree, oracle = _fit_both(
                X,
                yn,
                seed,
                splitter=splitter,
                max_features=max_features,
                max_depth=max_depth,
                min_samples_leaf=msl,
            )
        _assert_same_tree(tree, oracle)

    def test_column_with_nan_loss_is_skipped(self):
        # The root's feature 0 scores NaN losses (its sort order
        # overflows the sum of squares), so the root splits on feature 1.
        big = np.sqrt(np.finfo(float).max)
        small = np.sqrt(0.45 * 2.0**971)
        y = np.array([big, small, small, small, small, small])
        X = np.stack([[4.0, 0, 1, 2, 3, 5], np.arange(6.0)], axis=1)
        with np.errstate(all="ignore"):
            tree, oracle = _fit_both(X, y, 0)
        assert tree._feature_a[0] == 1
        _assert_same_tree(tree, oracle)

    @pytest.mark.parametrize("splitter", ["best", "random"])
    def test_deep_tree_over_many_features(self, splitter):
        # The cascade's shape: few rows, over a thousand features.
        r = np.random.default_rng(1)
        X = np.round(r.uniform(size=(64, 1431)), 2)
        y = np.sin(6 * X[:, 0]) + X[:, 1] + r.normal(0, 0.1, 64)
        tree, oracle = _fit_both(
            X, y, 7, splitter=splitter, max_features="sqrt", min_samples_leaf=2
        )
        assert tree.n_nodes > 15
        _assert_same_tree(tree, oracle)


def _grown_trees(monkeypatch, fit, oracle: bool):
    """Every tree ``fit()`` grows, in fit order (cross-fit fold models
    included), and the fitted model; with ``oracle`` the whole-tree
    oracle grows them."""
    grown = []
    fit_tree = parallel_mod._fit_tree

    def record(*args):
        tree, seconds = fit_tree(*args)
        grown.append(tree)
        return tree, seconds

    with monkeypatch.context() as m:
        m.setattr(parallel_mod, "_fit_tree", record)
        if oracle:
            m.setattr(RegressionTree, "_build", build_oracle)
        model = fit()
    return model, grown


def _assert_same_model(monkeypatch, fit, predict):
    model, trees = _grown_trees(monkeypatch, fit, oracle=False)
    ref, ref_trees = _grown_trees(monkeypatch, fit, oracle=True)
    assert len(trees) == len(ref_trees) > 0
    assert all(trees_equal(a, b) for a, b in zip(trees, ref_trees))
    assert np.array_equal(predict(model), predict(ref))


def _ties(n, d, rng):
    r = np.random.default_rng(rng)
    X = np.round(r.uniform(size=(n, d)), 1)  # many ties
    y = np.round(X[:, 0] * X[:, 1] + r.normal(0, 0.3, n), 2)
    return X, y


def _traces(n, rng):
    r = np.random.default_rng(rng)
    traces = np.round(r.normal(size=(n, 8, 8)), 1)
    y = traces[:, 2:4, 2:4].mean(axis=(1, 2)) + r.normal(0, 0.05, n)
    return traces, y


class TestForestsMatchOracle:
    @pytest.mark.parametrize(
        "cls", [RandomForestRegressor, CompletelyRandomForestRegressor]
    )
    def test_forests(self, monkeypatch, cls):
        X, y = _ties(150, 8, 0)
        _assert_same_model(
            monkeypatch,
            lambda: cls(n_estimators=4, min_samples_leaf=2, rng=3).fit(X, y),
            lambda f: f.predict(X),
        )

    def test_multi_grain_scanner(self, monkeypatch):
        traces, y = _traces(30, 1)
        _assert_same_model(
            monkeypatch,
            lambda: MultiGrainScanner(
                windows=[(3, 3), (5, 5)], n_estimators=3, max_instances=300, rng=2
            ).fit(traces, y),
            lambda s: s.transform(traces),
        )

    def test_cascade(self, monkeypatch):
        X, y = _ties(90, 6, 4)
        _assert_same_model(
            monkeypatch,
            lambda: CascadeForest(
                n_levels=2, forests_per_level=2, n_estimators=3, rng=5
            ).fit(X, y),
            lambda c: c.predict(X),
        )

    def test_deep_forest(self, monkeypatch):
        X, _ = _ties(40, 3, 6)
        traces, y = _traces(40, 7)
        _assert_same_model(
            monkeypatch,
            lambda: DeepForestRegressor(
                windows=[(3, 3)],
                mgs_estimators=3,
                mgs_max_instances=300,
                n_levels=2,
                forests_per_level=2,
                n_estimators=3,
                rng=8,
            ).fit(X, traces, y),
            lambda df: df.predict(X, traces),
        )
