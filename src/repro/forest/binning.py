"""Quantile binning for histogram-based split finding (LightGBM-style).

Features are discretized once per forest fit into ``uint8`` codes; the
histogram splitter (:meth:`RegressionTree.fit_binned`) then finds the
best split with prefix-summed bin statistics instead of sorting the
node's raw values.

The binning contract the splitter relies on::

    code(x) <= b  <=>  x <= edges[b]

for every feature and every boundary index ``b``, so a split recorded
as the *raw-space* threshold ``edges[b]`` routes raw inputs at predict
time exactly the way the binned training rows were routed.

Edge handling:

- a feature with <= ``max_bins`` distinct finite values gets one bin per
  value, with boundaries at the midpoints between consecutive values —
  the same candidate thresholds the exact splitter would consider;
- wider features get quantile boundaries (deduplicated, so heavy ties
  collapse into fewer bins);
- NaN (and ``+inf``) map to the top bin, ``-inf`` to the bottom bin, and
  an all-NaN or constant column becomes a single unsplittable bin —
  binning never raises on non-finite values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: ``uint8`` codes cap the bin count at 255 (code 255 is never emitted:
#: the top code equals ``len(edges) <= max_bins - 1``).
MAX_BINS = 255


@dataclass
class BinnedMatrix:
    """A feature matrix discretized for histogram split finding.

    Attributes
    ----------
    codes:
        (n, d) ``uint8`` bin codes.
    edges:
        Per-feature upper bin boundaries in raw feature space; feature
        ``f`` has ``len(edges[f]) + 1`` bins and ``edges[f][b]`` is the
        raw-space threshold of a split after bin ``b``.
    """

    codes: np.ndarray
    edges: list[np.ndarray]

    @property
    def n_bins(self) -> np.ndarray:
        """Bins per feature (constant features report 1)."""
        return np.array([e.size + 1 for e in self.edges])


def quantile_bin(X, max_bins: int = MAX_BINS) -> BinnedMatrix:
    """Discretize ``X`` column-by-column into at most ``max_bins`` bins.

    Parameters
    ----------
    X:
        (n, d) float matrix.
    max_bins:
        Bin budget per feature, 2..255 (codes must fit ``uint8``).
    """
    if not 2 <= max_bins <= MAX_BINS:
        raise ValueError(f"max_bins must be in [2, {MAX_BINS}], got {max_bins}")
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {X.shape}")
    n, d = X.shape
    codes = np.empty((n, d), dtype=np.uint8)
    edges: list[np.ndarray] = []
    for f in range(d):
        col = X[:, f]
        finite = col[np.isfinite(col)]
        uniq = np.unique(finite)
        if uniq.size <= 1:
            e = np.empty(0)
        elif uniq.size <= max_bins:
            # One bin per distinct value; boundaries at midpoints, the
            # exact splitter's candidate thresholds.
            e = 0.5 * (uniq[:-1] + uniq[1:])
        else:
            qs = np.quantile(finite, np.arange(1, max_bins) / max_bins)
            e = np.unique(qs)
        # side="left": x == edges[b] lands in bin b, so the split
        # predicate "code <= b" is exactly "x <= edges[b]".  NaN sorts
        # after every float and lands in the top bin.
        codes[:, f] = np.searchsorted(e, col, side="left").astype(np.uint8)
        edges.append(e)
    return BinnedMatrix(codes=codes, edges=edges)
