"""Tests for Bolt-style packed forest inference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.forest import (
    CompletelyRandomForestRegressor,
    PackedForest,
    RandomForestRegressor,
)
from repro.forest.fast_inference import _CHUNK_ROWS

from .forest_oracle import predict_oracle, predict_per_tree_oracle


def fitted_forest(n_estimators=10, n=200, d=5, rng=0, cls=RandomForestRegressor):
    r = np.random.default_rng(rng)
    X = r.uniform(size=(n, d))
    y = np.sin(3 * X[:, 0]) + X[:, 1]
    forest = cls(n_estimators=n_estimators, rng=rng)
    return forest.fit(X, y), X


FOREST_KINDS = [RandomForestRegressor, CompletelyRandomForestRegressor]
KIND_IDS = [c.__name__ for c in FOREST_KINDS]
CHUNK_ROW_COUNTS = [
    0,
    1,
    _CHUNK_ROWS - 1,
    _CHUNK_ROWS,
    _CHUNK_ROWS + 1,
    2 * _CHUNK_ROWS + 3,
]


class TestEquivalence:
    @pytest.mark.parametrize(
        "cls", [RandomForestRegressor, CompletelyRandomForestRegressor]
    )
    def test_matches_naive_predictions(self, cls):
        forest, X = fitted_forest(cls=cls)
        packed = PackedForest.from_forest(forest)
        assert np.array_equal(packed.predict(X), predict_oracle(forest, X))

    def test_per_tree_matches(self):
        forest, X = fitted_forest(n_estimators=4)
        packed = PackedForest.from_forest(forest)
        assert np.array_equal(
            packed.predict_per_tree(X[:20]), predict_per_tree_oracle(forest, X[:20])
        )

    def test_unseen_inputs(self):
        forest, X = fitted_forest()
        packed = PackedForest.from_forest(forest)
        Xt = np.random.default_rng(9).uniform(-2, 3, size=(50, X.shape[1]))
        assert np.array_equal(packed.predict(Xt), predict_oracle(forest, Xt))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 8), st.integers(5, 60), st.integers(0, 10**6))
    def test_equivalence_property(self, n_trees, n_samples, seed):
        forest, X = fitted_forest(n_estimators=n_trees, n=60, rng=seed)
        packed = PackedForest.from_forest(forest)
        Xt = np.random.default_rng(seed + 1).uniform(size=(n_samples, X.shape[1]))
        assert np.array_equal(packed.predict(Xt), predict_oracle(forest, Xt))


class TestBatchIndependence:
    """A row predicted alone equals the same row inside a batch: the
    trees are summed in one order at every batch size (a one-column
    ``mean`` would sum them pairwise)."""

    @settings(max_examples=40, deadline=None)
    @given(
        n_trees=st.integers(1, 40),
        n_rows=st.integers(1, 12),
        seed=st.integers(0, 10**6),
        data=st.data(),
    )
    def test_row_alone_equals_row_in_batch(self, n_trees, n_rows, seed, data):
        forest, _ = fitted_forest(n_estimators=n_trees, n=60, rng=seed)
        packed = PackedForest.from_forest(forest)
        Xt = np.random.default_rng(seed + 1).uniform(-0.2, 1.2, size=(n_rows, 5))
        i = data.draw(st.integers(0, n_rows - 1))
        alone = packed.predict(Xt[i : i + 1])
        assert alone.tobytes() == packed.predict(Xt)[i : i + 1].tobytes()


class TestForestIntegration:
    """Every forest predict runs through the chunked packed traversal and
    equals the per-tree oracle bit for bit, at any batch size."""

    @pytest.fixture(scope="class")
    def queries(self):
        rng = np.random.default_rng(4)
        return rng.uniform(-0.2, 1.2, size=(max(CHUNK_ROW_COUNTS), 5))

    @pytest.mark.parametrize("n_rows", CHUNK_ROW_COUNTS)
    @pytest.mark.parametrize("n_estimators", [1, 7])
    @pytest.mark.parametrize("cls", FOREST_KINDS, ids=KIND_IDS)
    def test_predict_equals_oracle(self, cls, n_estimators, n_rows, queries):
        forest, _ = fitted_forest(n_estimators=n_estimators, cls=cls)
        Xt = queries[:n_rows]
        mean = forest.predict(Xt)
        per_tree = forest.predict_per_tree(Xt)
        assert mean.shape == (n_rows,)
        assert per_tree.shape == (n_estimators, n_rows)
        assert np.array_equal(mean, predict_oracle(forest, Xt))
        assert np.array_equal(per_tree, predict_per_tree_oracle(forest, Xt))

    def test_predict_dispatches_to_packed_consistently(self):
        """The whole batch and its 100-row slices both equal the oracle."""
        forest, _ = fitted_forest(n_estimators=12, n=300)
        Xt = np.random.default_rng(4).uniform(size=(400, 5))
        small = np.concatenate(
            [forest.predict(Xt[i : i + 100]) for i in range(0, 400, 100)]
        )
        expected = predict_oracle(forest, Xt)
        assert np.array_equal(forest.predict(Xt), expected)
        assert np.array_equal(small, expected)

    def test_pack_cached_until_refit(self):
        forest, X = fitted_forest(n_estimators=8)
        p1 = forest.pack()
        assert forest.pack() is p1
        forest.fit(X, np.zeros(X.shape[0]))
        assert forest.pack() is not p1

    def test_pack_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor(n_estimators=2).pack()


class TestTraversal:
    """The level walk (one flat feature gather, one interleaved-child
    gather per level) equals the per-tree walk of the oracle, including
    NaN features (sent right, as ``RegressionTree.predict`` does) and
    single-leaf trees (no levels at all)."""

    @staticmethod
    def _queries(n, d, seed, nan_frac):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-0.2, 1.2, size=(n, d))
        X[rng.random((n, d)) < nan_frac] = np.nan
        return X

    @pytest.mark.parametrize("cls", FOREST_KINDS, ids=KIND_IDS)
    def test_nan_features_go_right(self, cls):
        forest, _ = fitted_forest(n_estimators=6, cls=cls)
        packed = PackedForest.from_forest(forest)
        Xt = self._queries(300, 5, 1, nan_frac=0.3)
        Xt[0] = np.nan
        expected = predict_per_tree_oracle(forest, Xt)
        assert np.array_equal(packed._traverse(Xt), expected)
        assert np.array_equal(packed.predict_per_tree(Xt), expected)
        assert np.array_equal(packed.predict(Xt), predict_oracle(forest, Xt))

    def test_single_leaf_trees(self):
        forest, X = fitted_forest(n_estimators=3)
        flat = RandomForestRegressor(n_estimators=2, rng=1).fit(
            X, np.full(X.shape[0], 0.25)
        )
        assert all(t.depth == 0 for t in flat.trees_)
        Xt = self._queries(50, 5, 2, nan_frac=0.1)
        only_leaves = PackedForest.from_forest(flat)
        assert only_leaves.max_depth == 0
        assert np.array_equal(
            only_leaves._traverse(Xt), predict_per_tree_oracle(flat, Xt)
        )
        # Leaves next to deep trees self-loop through every level.
        mixed = PackedForest.from_trees(flat.trees_ + forest.trees_)
        expected = np.vstack(
            [predict_per_tree_oracle(flat, Xt), predict_per_tree_oracle(forest, Xt)]
        )
        assert np.array_equal(mixed.predict_per_tree(Xt), expected)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 80),
        st.integers(0, 10**6),
        st.sampled_from([0.0, 0.2, 1.0]),
    )
    def test_traverse_property(self, n_trees, n_samples, seed, nan_frac):
        forest, _ = fitted_forest(
            n_estimators=n_trees, n=60, rng=seed, cls=CompletelyRandomForestRegressor
        )
        packed = PackedForest.from_forest(forest)
        Xt = self._queries(n_samples, 5, seed + 1, nan_frac)
        assert np.array_equal(
            packed._traverse(Xt), predict_per_tree_oracle(forest, Xt)
        )


class TestStructure:
    def test_node_accounting(self):
        forest, _ = fitted_forest(n_estimators=6)
        packed = PackedForest.from_forest(forest)
        assert packed.n_trees == 6
        assert packed.n_nodes == sum(t.n_nodes for t in forest.trees_)

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            PackedForest.from_forest(RandomForestRegressor(n_estimators=2))

    def test_wrong_width_rejected(self):
        forest, _ = fitted_forest()
        packed = PackedForest.from_forest(forest)
        with pytest.raises(ValueError):
            packed.predict(np.zeros((3, 2)))


def test_from_trees_rejects_an_empty_list():
    with pytest.raises(ValueError, match="no fitted trees"):
        PackedForest.from_trees([])
