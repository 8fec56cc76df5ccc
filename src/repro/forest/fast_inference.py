"""Bolt-style fast batch inference for fitted forests.

The authors' companion work (Romero et al., "Bolt: Fast Inference for
Random Forests", Middleware '22 — reference [24] of the paper) shows
that packing all trees into contiguous arrays and advancing every
(tree, sample) pair level-by-level beats pointer-chasing tree
traversal.  ``PackedForest`` does exactly that: one NumPy gather per
tree level for the *entire* forest, instead of one Python-level loop
iteration per tree.
"""

from __future__ import annotations

import numpy as np

_LEAF = -1
# Rows per traversal chunk: bounds the (n_trees, rows) cursor matrix.
_CHUNK_ROWS = 2048


class PackedForest:
    """A fitted forest flattened into contiguous arrays.

    Node records of every tree are concatenated; child indices are
    rebased by each tree's offset, so a single set of arrays describes
    the whole ensemble.  Prediction advances an (n_trees, n_samples)
    matrix of node cursors with vectorized gathers until every cursor
    rests on a leaf.
    """

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        roots: np.ndarray,
        n_features: int,
        max_depth: int,
    ):
        self.feature = np.ascontiguousarray(feature, dtype=np.intp)
        self.threshold = np.ascontiguousarray(threshold, dtype=float)
        self.left = np.ascontiguousarray(left, dtype=np.intp)
        self.right = np.ascontiguousarray(right, dtype=np.intp)
        self.value = np.ascontiguousarray(value, dtype=float)
        self.roots = np.ascontiguousarray(roots, dtype=np.intp)
        self.n_features = n_features
        self.max_depth = max_depth
        # Leaf-safe views: leaves become self-loops with an always-true
        # comparison, so prediction needs no boolean masking — just
        # ``max_depth`` rounds of unconditional gathers.  The children
        # are interleaved (``kids[2 * i]`` left, ``kids[2 * i + 1]``
        # right) so one gather picks the branch taken.
        is_leaf = self.feature == _LEAF
        self._feature_safe = np.where(is_leaf, 0, self.feature)
        self._threshold_safe = np.where(is_leaf, np.inf, self.threshold)
        node_ids = np.arange(self.feature.shape[0], dtype=np.intp)
        self._kids = np.stack(
            [np.where(is_leaf, node_ids, self.left),
             np.where(is_leaf, node_ids, self.right)],
            axis=1,
        ).ravel()

    @classmethod
    def from_forest(cls, forest) -> "PackedForest":
        """Pack a fitted ``_BaseForest`` (or anything exposing ``trees_``)."""
        trees = getattr(forest, "trees_", None)
        if not trees:
            raise ValueError("forest has no fitted trees")
        return cls.from_trees(trees)

    @classmethod
    def from_trees(cls, trees) -> "PackedForest":
        """Pack a plain list of fitted trees, in list order.

        The trees need not come from one forest: a cascade level packs
        the trees of all its forests, forest after forest, so one
        traversal serves the whole level and each forest's mean is the
        mean over its block of rows in :meth:`predict_per_tree`.
        """
        trees = list(trees)
        if not trees:
            raise ValueError("no fitted trees to pack")
        feats, thrs, lefts, rights, vals, roots = [], [], [], [], [], []
        offset = 0
        max_depth = 0
        for t in trees:
            n = t.n_nodes
            feats.append(t._feature_a)
            thrs.append(t._threshold_a)
            lefts.append(t._left_a + offset)
            rights.append(t._right_a + offset)
            vals.append(t._value_a)
            roots.append(offset)
            offset += n
            max_depth = max(max_depth, t.depth)
        return cls(
            feature=np.concatenate(feats),
            threshold=np.concatenate(thrs),
            left=np.concatenate(lefts),
            right=np.concatenate(rights),
            value=np.concatenate(vals),
            roots=np.asarray(roots),
            n_features=trees[0].n_features_,
            max_depth=max_depth,
        )

    @property
    def n_trees(self) -> int:
        return int(self.roots.shape[0])

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    def predict_per_tree(self, X) -> np.ndarray:
        """(n_trees, n_samples) matrix of per-tree predictions.

        Level-synchronous traversal: every (tree, sample) cursor steps
        once per round with unconditional gathers; leaves self-loop, so
        ``max_depth`` rounds land every cursor on its leaf.  Rows are
        walked in chunks of ``_CHUNK_ROWS`` so the cursor matrix stays
        bounded at any batch size.
        """
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected (n, {self.n_features}) input, got {X.shape}")
        chunks = [
            self._traverse(X[i : i + _CHUNK_ROWS])
            for i in range(0, X.shape[0], _CHUNK_ROWS)
        ]
        if not chunks:
            return np.empty((self.n_trees, 0))
        return np.concatenate(chunks, axis=1)

    def _traverse(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        x_flat = X.ravel()
        # Flat offset of each cursor's sample row in ``x_flat``.
        row_offset = np.tile(
            np.arange(n, dtype=np.intp) * self.n_features, self.n_trees
        )
        node = np.repeat(self.roots, n)
        for _ in range(self.max_depth):
            x = x_flat.take(row_offset + self._feature_safe.take(node))
            # ``~(x <= thr)``, not ``x > thr``: a NaN feature goes right,
            # as in the per-tree walk.
            go_right = ~(x <= self._threshold_safe.take(node))
            node = self._kids.take(2 * node + go_right)
        return self.value.take(node).reshape(self.n_trees, n)

    def predict(self, X) -> np.ndarray:
        """Forest prediction: mean over trees, one pass over the pack."""
        return tree_mean(self.predict_per_tree(X))


def tree_mean(per_tree: np.ndarray) -> np.ndarray:
    """Mean over axis 0, summed one tree after another at every batch size.

    ``per_tree.mean(axis=0)`` sums a single column pairwise but wider
    arrays tree by tree, so a row predicted alone would round
    differently from the same row inside a batch.
    """
    total = per_tree[0].copy()
    for p in per_tree[1:]:
        total += p
    return total / per_tree.shape[0]
