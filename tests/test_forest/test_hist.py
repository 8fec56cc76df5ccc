"""Tests for quantile binning and histogram split finding."""

import numpy as np
import pytest

from repro.forest import (
    CompletelyRandomForestRegressor,
    RandomForestRegressor,
    RegressionTree,
    quantile_bin,
)
from repro.forest import tree as tree_mod
from repro.forest.binning import MAX_BINS


def friedman_like(n=300, rng=0):
    r = np.random.default_rng(rng)
    X = r.uniform(size=(n, 5))
    y = 10 * np.sin(np.pi * X[:, 0] * X[:, 1]) + 20 * (X[:, 2] - 0.5) ** 2
    return X, y + r.normal(0, 0.2, n)


class TestQuantileBin:
    def test_constant_feature_has_no_edges(self):
        X = np.column_stack([np.full(50, 3.7), np.arange(50.0)])
        b = quantile_bin(X)
        assert b.edges[0].size == 0
        assert np.all(b.codes[:, 0] == 0)
        assert b.n_bins[0] == 1

    def test_few_distinct_values_get_midpoint_edges(self):
        # < 255 distinct values: one bin per value, edges at midpoints —
        # exactly the exact splitter's candidate thresholds.
        vals = np.array([0.0, 1.0, 4.0, 10.0])
        col = np.repeat(vals, 5)
        b = quantile_bin(col[:, None])
        assert np.array_equal(b.edges[0], np.array([0.5, 2.5, 7.0]))
        assert b.n_bins[0] == 4
        # Each distinct value lands in its own code, in order.
        assert np.array_equal(np.unique(b.codes[:, 0]), np.arange(4))

    def test_tie_at_boundary_goes_left(self):
        # The contract: code(x) <= b  <=>  x <= edges[b].  A value that
        # equals a boundary must land in the lower bin.
        # Quantile boundaries can coincide with data values: with
        # max_bins=2 the single boundary is the median, a data value.
        col = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        b = quantile_bin(col[:, None], max_bins=2)
        assert b.edges[0][0] == 2.0
        assert b.codes[2, 0] == 0  # x == boundary lands in the lower bin
        assert np.array_equal(b.codes[:, 0], np.array([0, 0, 0, 1, 1]))

    def test_code_edge_consistency_property(self):
        # (x <= edges[b]) == (code <= b) for every boundary — random data.
        r = np.random.default_rng(7)
        col = np.round(r.normal(size=400), 1)  # heavy ties
        b = quantile_bin(col[:, None])
        codes = b.codes[:, 0].astype(int)
        for bidx, boundary in enumerate(b.edges[0]):
            assert np.array_equal(col <= boundary, codes <= bidx)

    def test_wide_feature_respects_bin_budget(self):
        r = np.random.default_rng(0)
        col = r.normal(size=5000)  # ~5000 distinct values
        b = quantile_bin(col[:, None], max_bins=64)
        assert b.n_bins[0] <= 64
        assert b.codes[:, 0].max() == b.edges[0].size  # top bin occupied

    def test_nan_maps_to_top_bin(self):
        col = np.array([0.0, 1.0, 2.0, np.nan, -np.inf, np.inf])
        b = quantile_bin(col[:, None])
        top = b.edges[0].size
        assert b.codes[3, 0] == top
        assert b.codes[5, 0] == top
        assert b.codes[4, 0] == 0  # -inf sorts before everything

    def test_all_nan_column_is_single_bin(self):
        X = np.column_stack([np.full(20, np.nan), np.arange(20.0)])
        b = quantile_bin(X)
        assert b.edges[0].size == 0
        assert np.all(b.codes[:, 0] == 0)

    def test_max_bins_validation(self):
        with pytest.raises(ValueError):
            quantile_bin(np.zeros((3, 1)), max_bins=1)
        with pytest.raises(ValueError):
            quantile_bin(np.zeros((3, 1)), max_bins=256)
        with pytest.raises(ValueError):
            quantile_bin(np.zeros(3))  # 1-D

    def test_codes_are_uint8(self):
        r = np.random.default_rng(1)
        b = quantile_bin(r.normal(size=(1000, 3)))
        assert b.codes.dtype == np.uint8
        assert b.codes.max() <= MAX_BINS - 1


class TestHistTree:
    def test_fits_step_function(self):
        X = np.linspace(0, 1, 200)[:, None]
        y = (X[:, 0] > 0.5).astype(float)
        t = RegressionTree(strategy="hist", rng=0).fit(X, y)
        assert np.allclose(t.predict(X), y)

    def test_picks_informative_feature(self):
        r = np.random.default_rng(3)
        X = r.uniform(size=(300, 4))
        y = 5.0 * X[:, 2]
        t = RegressionTree(max_depth=1, strategy="hist", rng=0).fit(X, y)
        assert t._feature_a[0] == 2

    def test_thresholds_are_raw_space(self):
        # Hist trees record raw thresholds, so predict needs no binning
        # and out-of-sample inputs route sensibly.
        X, y = friedman_like(200)
        t = RegressionTree(max_depth=4, strategy="hist", rng=0).fit(X, y)
        split_thr = t._threshold_a[t._feature_a >= 0]
        assert split_thr.min() >= 0.0 and split_thr.max() <= 1.0

    def test_min_samples_leaf_respected(self):
        X, y = friedman_like(100)
        t = RegressionTree(min_samples_leaf=10, strategy="hist", rng=0).fit(X, y)
        # Count samples per leaf by routing the training set.
        node = np.zeros(len(X), dtype=int)
        for _ in range(t.depth + 1):
            f = t._feature_a[node]
            go = np.where(
                f >= 0, X[np.arange(len(X)), np.maximum(f, 0)] <= t._threshold_a[node], False
            )
            node = np.where(f >= 0, np.where(go, t._left_a[node], t._right_a[node]), node)
        _, leaf_counts = np.unique(node, return_counts=True)
        assert leaf_counts.min() >= 10

    def test_deterministic(self):
        X, y = friedman_like(150)
        t1 = RegressionTree(max_features="sqrt", strategy="hist", rng=5).fit(X, y)
        t2 = RegressionTree(max_features="sqrt", strategy="hist", rng=5).fit(X, y)
        assert np.array_equal(t1._threshold_a, t2._threshold_a)
        assert np.array_equal(t1._feature_a, t2._feature_a)

    def test_sorted_and_bincount_paths_agree(self, monkeypatch):
        # The small-node argsort fallback and the bincount histogram must
        # find the same splits — force each path globally and compare.
        # Integer targets make every sum exact, so the two accumulation
        # orders produce bitwise-equal losses and identical trees.
        X, y = friedman_like(180, rng=9)
        y = np.round(y)
        monkeypatch.setattr(tree_mod, "_HIST_SORT_CUTOFF", 0)
        t_hist = RegressionTree(strategy="hist", rng=1).fit(X, y)
        monkeypatch.setattr(tree_mod, "_HIST_SORT_CUTOFF", 10**9)
        t_sort = RegressionTree(strategy="hist", rng=1).fit(X, y)
        assert np.array_equal(t_hist._feature_a, t_sort._feature_a)
        assert np.array_equal(t_hist._threshold_a, t_sort._threshold_a)
        assert np.array_equal(t_hist._value_a, t_sort._value_a)

    def test_random_splitter_hist(self):
        X, y = friedman_like(150)
        t = RegressionTree(splitter="random", strategy="hist", rng=2).fit(X, y)
        # Grown to purity: training predictions reproduce leaf means well.
        assert np.mean((t.predict(X) - y) ** 2) < np.var(y) * 0.1

    def test_handles_nan_training_values(self):
        r = np.random.default_rng(4)
        X = r.uniform(size=(120, 3))
        X[::7, 1] = np.nan
        y = 3.0 * X[:, 0]
        t = RegressionTree(strategy="hist", rng=0).fit(X, y)
        assert np.isfinite(t.predict(X[:5])).all()


class TestHistForest:
    @pytest.mark.parametrize(
        "cls", [RandomForestRegressor, CompletelyRandomForestRegressor]
    )
    def test_accuracy_close_to_exact(self, cls):
        X, y = friedman_like(400, rng=5)
        Xt, yt = friedman_like(400, rng=6)
        fe = cls(n_estimators=20, rng=0).fit(X, y)
        fh = cls(n_estimators=20, strategy="hist", rng=0).fit(X, y)
        mse_e = np.mean((fe.predict(Xt) - yt) ** 2)
        mse_h = np.mean((fh.predict(Xt) - yt) ** 2)
        assert mse_h < mse_e * 1.2  # within 20% of the exact splitter

    def test_importances_well_formed(self):
        X, y = friedman_like(200)
        f = RandomForestRegressor(n_estimators=8, strategy="hist", rng=0).fit(X, y)
        imp = f.feature_importances_
        assert imp.shape == (5,) and np.isclose(imp.sum(), 1.0)
        # Friedman's informative features dominate the noise features.
        assert imp[:3].sum() > imp[3:].sum()

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=2, strategy="nope")
        with pytest.raises(TypeError):
            RandomForestRegressor(n_estimators=2, n_bins=1)
        with pytest.raises(ValueError):
            RegressionTree(strategy="nope")
