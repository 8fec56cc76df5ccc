"""Vectorized CART regression tree.

Per node, the candidate-feature columns are stable-argsorted together
and every cut between two distinct values is scored at once by
prefix-summed variance reduction (:func:`_scan_sorted`).  Results are
bit-identical across releases.  Two splitters are supported:

- ``"best"``: CART — best variance-reduction split over a random
  feature subset (``max_features``), as in random forests.
- ``"random"``: completely-random trees — a random feature and a
  uniform-random threshold, grown until leaves are pure (Section 4.1).
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng

_LEAF = -1


def _scan_sorted(cols, yn, min_samples_leaf):
    """Best variance-reduction cut over every column of ``cols`` at once.

    ``cols`` is a node's (n, k) candidate-feature matrix.  Each column
    is stable-argsorted and every cut between two distinct sorted values
    that leaves ``min_samples_leaf`` rows on both sides is scored by the
    children's prefix-summed SSE.  Ties go to the earliest column, then
    the earliest cut; a column with a NaN loss at any valid cut is
    skipped.  Returns ``(column, left value, right value)`` — the sorted
    values either side of the winning cut — or ``None``.
    """
    n, k = cols.shape
    msl = min_samples_leaf
    if n < 2 * msl:
        return None
    order = cols.argsort(axis=0, kind="stable")
    xs = cols[order, np.arange(k)]
    ys = yn[order]
    s1 = ys.cumsum(axis=0)
    s2 = np.multiply(ys, ys, out=ys).cumsum(axis=0)
    # Cut p (msl <= p <= hi) sits between sorted rows p-1 and p, and x
    # must strictly change there; a NaN neighbour makes the cut invalid.
    hi = n - msl
    invalid = ~(xs[msl - 1 : hi] < xs[msl : hi + 1])  # (P, k)
    nl = np.arange(msl, hi + 1, dtype=float)[:, None]
    sl1, sl2 = s1[msl - 1 : hi], s2[msl - 1 : hi]
    sr1, sr2 = s1[-1] - sl1, s2[-1] - sl2
    # loss = (sl2 - sl1 * sl1 / nl) + (sr2 - sr1 * sr1 / nr), in place.
    loss = sl1 * sl1
    loss /= nl
    np.subtract(sl2, loss, out=loss)
    sr1 *= sr1
    sr1 /= n - nl
    sr2 -= sr1
    loss += sr2
    np.copyto(loss, np.inf, where=invalid)
    # The earliest column with the lowest loss, then its earliest cut.
    # A column's min is NaN if any of its valid cuts has a NaN loss.
    best = loss.min(axis=0)
    best[np.isnan(best)] = np.inf
    c = int(best.argmin())
    if not best[c] < np.inf:
        return None
    p = msl + int(loss[:, c].argmin())
    return c, xs[p - 1, c], xs[p, c]


class RegressionTree:
    """CART regression tree with a selectable splitter.

    Parameters
    ----------
    max_depth:
        Depth cap; ``None`` grows until pure / ``min_samples_leaf``.
    min_samples_leaf:
        Minimum samples in each child of a split.
    max_features:
        Candidate features per split: int, ``"sqrt"``, or ``None`` (all).
    splitter:
        ``"best"`` (CART) or ``"random"`` (completely random).
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: "int | str | None" = None,
        splitter: str = "best",
        rng=None,
    ):
        if splitter not in ("best", "random"):
            raise ValueError(f"unknown splitter {splitter!r}")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.splitter = splitter
        self._rng = as_rng(rng)
        # Flat tree arrays, filled by fit().
        self._feature: list[int] = []
        self._threshold: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._value: list[float] = []

    # -- fitting -------------------------------------------------------------

    def _n_candidate_features(self, d: int) -> int:
        mf = self.max_features
        if mf is None:
            return d
        if mf == "sqrt":
            return max(1, int(np.sqrt(d)))
        if isinstance(mf, (int, np.integer)) and mf >= 1:
            return min(int(mf), d)
        raise ValueError(f"bad max_features {mf!r}")

    def fit(self, X, y) -> "RegressionTree":
        X = np.ascontiguousarray(X, dtype=float)
        y = np.ascontiguousarray(y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError(f"bad shapes: X {X.shape}, y {y.shape}")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        if not np.isfinite(y).all():
            raise ValueError("y must be finite")
        self._feature, self._threshold = [], []
        self._left, self._right, self._value = [], [], []
        self.n_features_ = X.shape[1]
        self._n_split_features = (
            self._n_candidate_features(X.shape[1])
            if self.splitter == "best"
            else None
        )
        self._depth = 0
        self._build(X, y)
        # Freeze the node lists to arrays for fast prediction.
        self._feature_a = np.asarray(self._feature, dtype=np.intp)
        self._threshold_a = np.asarray(self._threshold)
        self._left_a = np.asarray(self._left, dtype=np.intp)
        self._right_a = np.asarray(self._right, dtype=np.intp)
        self._value_a = np.asarray(self._value)
        return self

    def _build(self, X, y) -> None:
        """Grow the tree over all rows of ``X`` with an explicit stack.

        Iterative preorder (node, then left subtree, then right) with a
        LIFO stack, pushing the right child first, so nodes are numbered
        and the splitter's rng is consumed in preorder.  A leaf's value
        is ``add.reduce(y) / n``, which is what ``ndarray.mean`` computes
        on float64.
        """
        feature, threshold = self._feature, self._threshold
        left, right, value = self._left, self._right, self._value
        msl, max_depth = self.min_samples_leaf, self.max_depth
        best = self.splitter == "best"
        deepest = 0
        # Frame: (sample indices, depth, parent node, is-left-child).
        stack = [(np.arange(X.shape[0]), 0, -1, False)]
        while stack:
            idx, depth, parent, is_left = stack.pop()
            node = len(feature)
            feature.append(_LEAF)
            threshold.append(0.0)
            left.append(0)
            right.append(0)
            if parent >= 0:
                (left if is_left else right)[parent] = node
            yn = y[idx]
            n = idx.shape[0]
            value.append(float(np.add.reduce(yn) / n))
            if (
                n < 2 * msl
                or (max_depth is not None and depth >= max_depth)
                or (yn == yn[0]).all()
            ):
                continue
            split = (
                self._best_split(X, yn, idx)
                if best
                else self._random_split(X, idx)
            )
            if split is None:
                continue
            f, thr = split
            mask = X[idx, f] <= thr
            left_idx, right_idx = idx[mask], idx[~mask]
            if left_idx.shape[0] < msl or right_idx.shape[0] < msl:
                continue
            feature[node] = f
            threshold[node] = thr
            deepest = max(deepest, depth + 1)
            stack.append((right_idx, depth + 1, node, False))
            stack.append((left_idx, depth + 1, node, True))
        self._depth = deepest

    # -- split search ------------------------------------------------------------

    def _best_split(self, X, yn, idx) -> tuple[int, float] | None:
        d = X.shape[1]
        k = self._n_split_features
        feats = (
            self._rng.choice(d, size=k, replace=False) if k < d else np.arange(d)
        )
        cut = _scan_sorted(X[idx[:, None], feats], yn, self.min_samples_leaf)
        if cut is None:
            return None
        c, left, right = cut
        return int(feats[c]), float(0.5 * (left + right))

    def _random_split(self, X, idx) -> tuple[int, float] | None:
        d = X.shape[1]
        # Try a handful of random features, skipping constant ones and
        # ones whose range is infinite or overflows (no uniform draw).
        for f in self._rng.permutation(d)[: min(d, 10)]:
            xs = X[idx, f]
            lo, hi = float(xs.min()), float(xs.max())
            if 0 < hi - lo < np.inf:
                thr = float(self._rng.uniform(lo, hi))
                # Guard against thr == hi putting everything left.
                if thr >= hi:
                    thr = np.nextafter(hi, lo)
                return int(f), thr
        return None

    # -- prediction ------------------------------------------------------------

    def predict(self, X) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected (n, {self.n_features_}) input, got {X.shape}"
            )
        n = X.shape[0]
        node = np.zeros(n, dtype=np.intp)
        rows = np.arange(n)
        while True:
            f = self._feature_a[node]
            active = f != _LEAF
            if not active.any():
                break
            an = node[active]
            ar = rows[active]
            go_left = X[ar, self._feature_a[an]] <= self._threshold_a[an]
            node[active] = np.where(
                go_left, self._left_a[an], self._right_a[an]
            )
        return self._value_a[node]

    @property
    def n_nodes(self) -> int:
        return len(self._feature)

    @property
    def depth(self) -> int:
        """Maximum depth of the fitted tree (root = 0).

        Recorded during :meth:`fit`, so reading it is O(1) — packing a
        fitted forest (:class:`~repro.forest.fast_inference.PackedForest`)
        no longer re-walks every tree's node table.
        """
        if not self._feature:
            raise RuntimeError("tree is not fitted")
        return self._depth
