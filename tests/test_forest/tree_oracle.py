"""Reference exact split search for equivalence tests.

This is the per-feature loop ``RegressionTree._best_split`` ran before
the split search became one vectorised sorted scan
(``repro.forest.tree._scan_sorted``): one stable argsort and one
prefix-sum variance scan per candidate feature, keeping the first
feature whose best loss is strictly lower than every earlier one.  The
shared scan must reproduce its ``(feature, threshold)`` bit for bit and
consume the tree's rng identically.
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
