"""Tests for the vectorized CART regression tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.forest import RegressionTree


def toy_step(n=200, rng=0):
    r = np.random.default_rng(rng)
    X = r.uniform(0, 1, size=(n, 3))
    y = np.where(X[:, 1] > 0.5, 2.0, -1.0)
    return X, y


class TestFitting:
    def test_perfect_fit_on_step(self):
        X, y = toy_step()
        t = RegressionTree(rng=0).fit(X, y)
        assert np.allclose(t.predict(X), y)

    def test_single_sample(self):
        t = RegressionTree().fit([[1.0]], [3.0])
        assert t.predict([[99.0]]) == pytest.approx(3.0)

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(1).uniform(size=(50, 4))
        t = RegressionTree().fit(X, np.full(50, 7.0))
        assert t.n_nodes == 1
        assert np.allclose(t.predict(X), 7.0)

    def test_max_depth_respected(self):
        X, y = toy_step(400, rng=2)
        y = y + np.random.default_rng(3).normal(0, 0.5, size=400)
        t = RegressionTree(max_depth=3, rng=0).fit(X, y)
        assert t.depth <= 3

    def test_min_samples_leaf_respected(self):
        X, y = toy_step(100, rng=4)
        t = RegressionTree(min_samples_leaf=20, rng=0).fit(X, y)
        # Leaf predictions are means over >= 20 samples: at most 5 leaves.
        assert len(np.unique(t.predict(X))) <= 5

    def test_prediction_is_leaf_mean(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([1.0, 3.0, 10.0, 20.0])
        t = RegressionTree(min_samples_leaf=2).fit(X, y)
        pred = t.predict(np.array([[0.0], [1.0]]))
        assert pred[0] == pytest.approx(2.0)
        assert pred[1] == pytest.approx(15.0)

    def test_random_splitter_fits_pure(self):
        X, y = toy_step(300, rng=5)
        t = RegressionTree(splitter="random", rng=6).fit(X, y)
        # Completely-random trees grow until pure leaves.
        assert np.allclose(t.predict(X), y)

    def test_deterministic_given_seed(self):
        X, y = toy_step(150, rng=7)
        y = y + np.random.default_rng(8).normal(0, 0.3, 150)
        p1 = RegressionTree(splitter="random", rng=42).fit(X, y).predict(X)
        p2 = RegressionTree(splitter="random", rng=42).fit(X, y).predict(X)
        assert np.array_equal(p1, p2)


class TestSplitQuality:
    def test_picks_informative_feature(self):
        r = np.random.default_rng(9)
        X = r.uniform(size=(300, 5))
        y = 5.0 * (X[:, 3] > 0.4)  # only feature 3 matters
        t = RegressionTree(max_depth=1, rng=0).fit(X, y)
        assert t._feature[0] == 3
        assert t._threshold[0] == pytest.approx(0.4, abs=0.05)

    def test_max_features_sqrt(self):
        t = RegressionTree(max_features="sqrt")
        assert t._n_candidate_features(16) == 4
        assert t._n_candidate_features(1) == 1

    def test_max_features_int(self):
        t = RegressionTree(max_features=3)
        assert t._n_candidate_features(10) == 3
        assert t._n_candidate_features(2) == 2

    def test_bad_max_features(self):
        t = RegressionTree(max_features=0)
        with pytest.raises(ValueError):
            t._n_candidate_features(4)


class TestDeepTrees:
    def test_deep_chain_fit_below_recursion_limit(self):
        """Unbounded-depth fits must not depend on the interpreter's
        recursion limit (the build walks an explicit stack).

        Exponentially growing targets make the best split peel a few
        samples off the top each time, producing a chain far deeper
        than the lowered recursion limit.
        """
        import sys

        n = 400
        X = np.arange(n, dtype=float).reshape(-1, 1)
        y = 1.5 ** np.arange(n)
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(120)
            tree = RegressionTree(splitter="best", rng=0).fit(X, y)
        finally:
            sys.setrecursionlimit(limit)
        assert tree.depth > 120
        # Every leaf is a single sample: the fit is exact.
        assert tree.n_nodes == 2 * n - 1
        assert np.array_equal(tree.predict(X), y)

    def test_preorder_node_numbering(self):
        # Root is node 0 and the left child is always the next node —
        # the numbering contract of the (formerly recursive) builder.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(120, 4))
        y = rng.normal(size=120) + 2.0 * X[:, 1]
        tree = RegressionTree(rng=0).fit(X, y)
        assert tree._feature[0] != -1  # root split exists
        for node, f in enumerate(tree._feature):
            if f != -1:
                assert tree._left[node] == node + 1
                assert tree._right[node] > tree._left[node]


class TestValidation:
    def test_bad_splitter(self):
        with pytest.raises(ValueError):
            RegressionTree(splitter="greedy")

    def test_bad_params(self):
        with pytest.raises(ValueError):
            RegressionTree(min_samples_leaf=0)
        with pytest.raises(ValueError):
            RegressionTree(max_depth=0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros((3, 2)), np.zeros(4))

    def test_empty_data(self):
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros((0, 2)), np.zeros(0))

    def test_predict_wrong_width(self):
        t = RegressionTree().fit([[1.0, 2.0]], [1.0])
        with pytest.raises(ValueError):
            t.predict([[1.0]])

    @pytest.mark.parametrize("splitter", ["best", "random"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, splitter, bad):
        # A NaN target used to fit silently and predict NaN everywhere.
        X, y = toy_step(20)
        y[5] = bad
        with pytest.raises(ValueError, match="finite"):
            RegressionTree(splitter=splitter, rng=0).fit(X, y)

    def test_non_finite_features_still_fit(self):
        # NaN and inf features stay legal: a NaN never goes left, and
        # the cut between 2 and inf sits at inf, so those two share a leaf.
        X = np.array([[0.0], [np.nan], [np.inf], [1.0], [-np.inf], [2.0]])
        y = np.array([0.0, 5.0, 3.0, 1.0, -1.0, 2.0])
        pred = RegressionTree(rng=0).fit(X, y).predict(X)
        assert np.array_equal(pred, [0.0, 5.0, 2.5, 1.0, -1.0, 2.5])


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 60), st.integers(1, 4), st.integers(0, 10**6))
    def test_predictions_within_target_range(self, n, d, seed):
        """Tree predictions are convex combinations of training targets."""
        r = np.random.default_rng(seed)
        X = r.normal(size=(n, d))
        y = r.normal(size=n)
        t = RegressionTree(rng=seed).fit(X, y)
        pred = t.predict(r.normal(size=(20, d)))
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(st.integers(5, 40), st.integers(0, 10**6))
    def test_train_fit_reduces_error_vs_mean(self, n, seed):
        r = np.random.default_rng(seed)
        X = r.uniform(size=(n, 2))
        y = X[:, 0] * 3 + r.normal(0, 0.01, n)
        t = RegressionTree(min_samples_leaf=1, rng=seed).fit(X, y)
        tree_err = np.mean((t.predict(X) - y) ** 2)
        mean_err = np.var(y)
        assert tree_err <= mean_err + 1e-12


def test_depth_needs_a_fit():
    with pytest.raises(RuntimeError, match="not fitted"):
        RegressionTree().depth


def _node_rows(tree, X):
    """Training rows reaching each node, found by routing ``X`` down."""
    reach = {0: np.arange(X.shape[0])}
    for node in range(tree.n_nodes):
        f = tree._feature_a[node]
        if f < 0:
            continue
        rows = reach[node]
        go_left = X[rows, f] <= tree._threshold_a[node]
        reach[tree._left_a[node]] = rows[go_left]
        reach[tree._right_a[node]] = rows[~go_left]
    return reach


def _noisy_grid(n=160, d=4, rng=0):
    """Rounded features (many ties) and a noisy target."""
    r = np.random.default_rng(rng)
    X = np.round(r.uniform(-3, 3, size=(n, d)), 1)
    y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + r.normal(0, 0.3, n)
    return X, y


class TestSplitThresholds:
    @pytest.mark.parametrize("max_features", [None, "sqrt"])
    @pytest.mark.parametrize("min_samples_leaf", [1, 4])
    def test_best_threshold_is_midpoint_of_adjacent_values(
        self, max_features, min_samples_leaf
    ):
        """A CART cut sits halfway between the largest left value and the
        smallest right value of its feature at that node."""
        X, y = _noisy_grid()
        t = RegressionTree(
            max_features=max_features, min_samples_leaf=min_samples_leaf, rng=3
        ).fit(X, y)
        reach = _node_rows(t, X)
        internal = np.flatnonzero(t._feature_a >= 0)
        assert internal.size > 5
        for node in internal:
            f, thr = t._feature_a[node], t._threshold_a[node]
            left = X[reach[t._left_a[node]], f]
            right = X[reach[t._right_a[node]], f]
            assert min(left.size, right.size) >= min_samples_leaf
            assert left.max() < right.min()
            assert thr == 0.5 * (left.max() + right.min())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_threshold_inside_node_range(self, seed):
        """A completely-random cut lies in ``[min, max)`` of its feature
        over the node's rows, so both children are non-empty."""
        X, y = _noisy_grid(rng=seed)
        t = RegressionTree(splitter="random", rng=seed).fit(X, y)
        reach = _node_rows(t, X)
        internal = np.flatnonzero(t._feature_a >= 0)
        assert internal.size > 5
        for node in internal:
            f, thr = t._feature_a[node], t._threshold_a[node]
            xs = X[reach[node], f]
            assert xs.min() <= thr < xs.max()
            assert reach[t._left_a[node]].size > 0
            assert reach[t._right_a[node]].size > 0

    def test_random_threshold_between_adjacent_floats(self):
        """With a node's two values one ulp apart, a uniform draw can
        round up to the maximum; the cut is pulled back below it so the
        split still separates the two values."""
        lo = 1.0
        hi = np.nextafter(lo, 2.0)
        X = np.array([[lo], [hi]] * 4)
        y = np.array([0.0, 1.0] * 4)
        for seed in range(8):
            t = RegressionTree(splitter="random", rng=seed).fit(X, y)
            assert t.n_nodes == 3
            assert t._threshold_a[0] == lo
            assert np.array_equal(t.predict(X), y)


def _unbounded(column: str, n: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Three features whose middle one has an infinite range (±inf) or a
    finite range wider than the largest float (±1e308)."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, 3))
    big = np.inf if column == "inf" else 1e308
    X[:, 1] = np.where(np.arange(n) % 2 == 0, big, -big)
    return X, X[:, 0] + 0.5 * X[:, 2]


class TestRandomSplitUnboundedRange:
    """A random threshold cannot be drawn over a range of infinite width.
    ``rng.uniform`` used to raise ``OverflowError`` there; such a column
    is now skipped the way a constant one is."""

    @pytest.mark.parametrize("column", ["inf", "1e308"])
    def test_column_never_split_on(self, column):
        from repro.forest import CompletelyRandomForestRegressor

        X, y = _unbounded(column)
        forest = CompletelyRandomForestRegressor(n_estimators=3, rng=0).fit(X, y)
        for tree in forest.trees_:
            assert 1 not in tree._feature
            assert tree.n_nodes > 1
        assert np.all(np.isfinite(forest.predict(X)))

    @pytest.mark.parametrize("column", ["inf", "1e308"])
    def test_only_unbounded_column_gives_a_leaf(self, column):
        X, y = _unbounded(column)
        tree = RegressionTree(splitter="random", rng=0).fit(X[:, 1:2], y)
        assert tree.n_nodes == 1
        assert tree.predict(X[:, 1:2])[0] == pytest.approx(y.mean())

    def test_one_infinite_entry(self):
        """The reproduction: one ``inf`` among finite values.  The column
        splits again below the node that separates the ``inf`` row."""
        from repro.forest import CompletelyRandomForestRegressor

        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 2))
        y = X[:, 0] - X[:, 1]
        X[7, 0] = np.inf
        forest = CompletelyRandomForestRegressor(n_estimators=3, rng=0).fit(X, y)
        assert np.all(np.isfinite(forest.predict(X)))
