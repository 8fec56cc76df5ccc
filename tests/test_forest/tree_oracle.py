"""Reference tree growth for equivalence tests.

``best_split_oracle`` is the per-feature loop ``RegressionTree._best_split``
ran before the split search became one vectorised sorted scan
(``repro.forest.tree._scan_sorted``): one stable argsort and one
prefix-sum variance scan per candidate feature, keeping the first
feature whose best loss is strictly lower than every earlier one.  The
shared scan must reproduce its ``(feature, threshold)`` bit for bit and
consume the tree's rng identically.

``build_oracle`` is the whole preorder build as it was before the lean
split scan: fancy-indexed prefix sums, ``ndarray.mean`` leaf values,
the candidate count recomputed per node.  The production build must
grow the same trees from the same rng draws.
"""

import numpy as np


def best_split_oracle(self, X, yn, idx) -> tuple[int, float] | None:
    """Drop-in for ``RegressionTree._best_split`` (``self`` is the tree)."""
    n, d = idx.shape[0], X.shape[1]
    k = self._n_candidate_features(d)
    feats = (
        self._rng.choice(d, size=k, replace=False) if k < d else np.arange(d)
    )
    msl = self.min_samples_leaf
    best_loss = np.inf
    best = None
    for f in feats:
        xs = X[idx, f]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        ys = yn[order]
        # Valid split positions: between i-1 and i, with both children
        # >= msl and a strict change in x.
        s1 = np.cumsum(ys)
        s2 = np.cumsum(ys * ys)
        pos = np.arange(msl, n - msl + 1)
        if pos.size == 0:
            continue
        distinct = xs_sorted[pos - 1] < xs_sorted[pos]
        pos = pos[distinct]
        if pos.size == 0:
            continue
        nl = pos.astype(float)
        nr = n - nl
        sl1, sl2 = s1[pos - 1], s2[pos - 1]
        sr1, sr2 = s1[-1] - sl1, s2[-1] - sl2
        loss = (sl2 - sl1 * sl1 / nl) + (sr2 - sr1 * sr1 / nr)
        j = int(np.argmin(loss))
        if loss[j] < best_loss:
            best_loss = float(loss[j])
            p = pos[j]
            thr = 0.5 * (xs_sorted[p - 1] + xs_sorted[p])
            best = (int(f), float(thr))
    return best


def scan_sorted_oracle(cols, yn, min_samples_leaf):
    """``repro.forest.tree._scan_sorted`` before its lean rewrite: the
    cut positions as an index array, fancy-indexed prefix sums and a
    ``np.where`` mask."""
    n = cols.shape[0]
    pos = np.arange(min_samples_leaf, n - min_samples_leaf + 1)
    if pos.size == 0:
        return None
    order = np.argsort(cols, axis=0, kind="stable")
    xs = np.take_along_axis(cols, order, axis=0)
    ys = yn[order]
    s1 = np.cumsum(ys, axis=0)
    s2 = np.cumsum(ys * ys, axis=0)
    # Cut p sits between sorted rows p-1 and p; x must strictly change.
    valid = xs[pos - 1] < xs[pos]  # (P, k)
    nl = pos.astype(float)[:, None]
    nr = n - nl
    sl1, sl2 = s1[pos - 1], s2[pos - 1]
    sr1, sr2 = s1[-1] - sl1, s2[-1] - sl2
    loss = (sl2 - sl1 * sl1 / nl) + (sr2 - sr1 * sr1 / nr)
    # (k, P): a flat argmin takes the earliest column, then earliest cut.
    loss = np.where(valid, loss, np.inf).T
    loss[np.isnan(loss).any(axis=1)] = np.inf
    c, j = np.unravel_index(int(np.argmin(loss)), loss.shape)
    if not loss[c, j] < np.inf:
        return None
    p = pos[j]
    return int(c), xs[p - 1, c], xs[p, c]


def _best_split_preorder(self, X, yn, idx) -> tuple[int, float] | None:
    """``RegressionTree._best_split`` as :func:`build_oracle` called it:
    the candidate count recomputed per node, every column gathered
    through the feature index."""
    d = X.shape[1]
    k = self._n_candidate_features(d)
    feats = (
        self._rng.choice(d, size=k, replace=False) if k < d else np.arange(d)
    )
    cut = scan_sorted_oracle(
        X[idx[:, None], feats[None, :]], yn, self.min_samples_leaf
    )
    if cut is None:
        return None
    c, left, right = cut
    return int(feats[c]), float(0.5 * (left + right))


def _random_split_preorder(self, X, idx) -> tuple[int, float] | None:
    """``RegressionTree._random_split``, kept here so the whole-tree
    oracle does not follow later changes to the production splitter."""
    d = X.shape[1]
    for f in self._rng.permutation(d)[: min(d, 10)]:
        xs = X[idx, f]
        lo, hi = float(xs.min()), float(xs.max())
        if lo < hi:
            thr = float(self._rng.uniform(lo, hi))
            if thr >= hi:
                thr = np.nextafter(hi, lo)
            return int(f), thr
    return None


def build_oracle(self, X, y) -> None:
    """Drop-in for ``RegressionTree._build``: the preorder build before
    the lean split scan.  Its impurity-decrease bookkeeping is left out,
    as it never changed the tree.

    Nodes are numbered, and the rng consumed, in preorder (node, left
    subtree, right subtree).  The production build must grow the same
    tree, bit for bit.
    """

    def new_node() -> int:
        self._feature.append(-1)
        self._threshold.append(0.0)
        self._left.append(0)
        self._right.append(0)
        self._value.append(0.0)
        return len(self._feature) - 1

    stack = [(np.arange(X.shape[0]), 0, -1, False)]
    while stack:
        idx, depth, parent, is_left = stack.pop()
        node = new_node()
        if parent >= 0:
            (self._left if is_left else self._right)[parent] = node
        yn = y[idx]
        self._value[node] = float(yn.mean())
        n = idx.shape[0]
        if (
            n < 2 * self.min_samples_leaf
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.all(yn == yn[0])
        ):
            continue
        split = (
            _best_split_preorder(self, X, yn, idx)
            if self.splitter == "best"
            else _random_split_preorder(self, X, idx)
        )
        if split is None:
            continue
        f, thr = split
        mask = X[idx, f] <= thr
        left_idx, right_idx = idx[mask], idx[~mask]
        if (
            left_idx.shape[0] < self.min_samples_leaf
            or right_idx.shape[0] < self.min_samples_leaf
        ):
            continue
        self._feature[node] = f
        self._threshold[node] = thr
        self._depth = max(self._depth, depth + 1)
        stack.append((right_idx, depth + 1, node, False))
        stack.append((left_idx, depth + 1, node, True))
