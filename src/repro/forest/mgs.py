"""Multi-grained scanning: representational learning for deep forests.

Sliding windows scan the (counters x ticks) trace; each window position
becomes a training instance for a window-specific forest whose
prediction is a new representational feature (Figure 4).  Window
extraction uses stride tricks — zero-copy views — so scanning large
profile sets stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import telemetry
from repro._util import as_rng, spawn_rngs
from repro.forest.ensemble import RandomForestRegressor
from repro.forest.parallel import fit_plans


def sliding_windows(traces: np.ndarray, window: tuple[int, int]) -> np.ndarray:
    """Extract all window positions from a batch of 2-D traces.

    Parameters
    ----------
    traces:
        (n_samples, H, W) array.
    window:
        (h, w) window shape; clipped dims raise.

    Returns
    -------
    (n_samples, n_positions, h*w) array, where
    ``n_positions = (H - h + 1) * (W - w + 1)``.
    """
    traces = np.asarray(traces, dtype=float)
    if traces.ndim != 3:
        raise ValueError(f"expected (n, H, W) traces, got shape {traces.shape}")
    h, w = window
    n, H, W = traces.shape
    if not (1 <= h <= H and 1 <= w <= W):
        raise ValueError(f"window {window} does not fit traces of {(H, W)}")
    views = sliding_window_view(traces, (h, w), axis=(1, 2))
    # views: (n, H-h+1, W-w+1, h, w) -> (n, positions, h*w)
    return views.reshape(n, (H - h + 1) * (W - w + 1), h * w)


#: Odd 64-bit multipliers of the content hash in :func:`_content_groups`,
#: one per key part (cycled when a key has more parts).
_HASH_MULTIPLIERS = np.random.default_rng(0x6D6773).integers(
    0, 2**64, size=64, dtype=np.uint64
) | np.uint64(1)
#: Elements of one temporary in :func:`_content_groups`.  Key parts are
#: hashed and compared a block at a time, as many parts as fit and at
#: least one: a call on many keys allocates only ``(m,)`` arrays, and a
#: call on few keys runs a few array operations, not several per part.
_KEY_BLOCK_ELEMENTS = 1 << 16


def _content_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the columns of a (k, m) uint64 array exactly by content.

    Each of the ``m`` keys is a column of ``k`` parts.  Returns
    ``(label, first)``: ``label[i]`` is key ``i``'s group, and
    ``first[g]`` the index of group ``g``'s representative; groups are
    numbered in the order of their representatives.

    The parts are hashed a block at a time (a multilinear hash of each
    part with its high bits folded onto its low bits), and the hashes
    are sorted.  Every key is then checked bit for bit against its hash
    group's representative, and a key that differs gets a group of its
    own: a hash collision can cost a repeat, never a wrong label.
    """
    k, m = keys.shape
    step = max(1, _KEY_BLOCK_ELEMENTS // max(m, 1))
    multipliers = np.resize(_HASH_MULTIPLIERS, k)[:, None]
    h = np.zeros(m, dtype=np.uint64)
    for p in range(0, k, step):
        block = keys[p : p + step]
        mixed = block >> np.uint64(32)
        mixed ^= block
        mixed *= multipliers[p : p + step]
        h += mixed.sum(axis=0)
    order = np.argsort(h)
    h = h[order]
    start = np.ones(m, dtype=bool)
    np.not_equal(h[1:], h[:-1], out=start[1:])
    rep = np.empty(m, dtype=np.intp)
    rep[order] = order[np.flatnonzero(start)][np.cumsum(start) - 1]
    same = np.ones(m, dtype=bool)
    for p in range(0, k, step):
        block = keys[p : p + step]
        same &= (block == block[:, rep]).all(axis=0)
    rep[~same] = np.flatnonzero(~same)
    first = np.flatnonzero(rep == np.arange(m))
    label = np.empty(m, dtype=np.intp)
    label[first] = np.arange(first.shape[0])
    return label[rep], first


def _run_keys(rows: np.ndarray, k: int) -> np.ndarray:
    """(k, m) keys of every run of ``k`` consecutive elements in each
    row of ``rows``: key ``i * n_runs + j`` is ``rows[i, j : j + k]``."""
    n_runs = rows.shape[1] - k + 1
    return np.stack([rows[:, p : p + n_runs] for p in range(k)]).reshape(k, -1)


@dataclass
class MultiGrainScanner:
    """Scan traces with several window sizes, one forest per window.

    Parameters
    ----------
    windows:
        Window shapes, e.g. ``[(5, 5), (10, 10)]`` (the paper uses
        four: 5x5, 10x10, 15x15 and 35x35 on a 58-row trace).
    n_estimators:
        Trees per window forest (paper: 50).
    max_instances:
        Cap on window instances used to train each forest (subsampled
        uniformly) — scanning is cheap but training on every position of
        every sample is not.
    n_jobs:
        Process-pool width for tree training.  The pool spans *all*
        window forests in one pass, and each forest's window instances
        reach a worker once, through the pool initializer (``n_jobs`` is
        also plumbed into each forest, so a later standalone refit
        parallelizes); results are bit-identical for every value.
    """

    windows: list[tuple[int, int]] = field(default_factory=lambda: [(5, 5)])
    n_estimators: int = 50
    max_depth: int | None = 12
    max_instances: int = 20000
    n_jobs: int = 1
    rng: object = None
    _forests: list[RandomForestRegressor] = field(default_factory=list, init=False)
    _fitted_shape: tuple[int, int] | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if not self.windows:
            raise ValueError("need at least one window")
        if self.n_estimators < 1 or self.max_instances < 1:
            raise ValueError("n_estimators and max_instances must be >= 1")
        self._rng = as_rng(self.rng)

    def fit(self, traces: np.ndarray, y: np.ndarray) -> "MultiGrainScanner":
        """Train one forest per window size on window-level instances.

        Every window position of sample *i* is paired with target ``y[i]``
        (Figure 4: "sliding windows are computed and paired with
        corresponding effective cache allocation").
        """
        traces = np.asarray(traces, dtype=float)
        y = np.asarray(y, dtype=float)
        if traces.shape[0] != y.shape[0]:
            raise ValueError("traces and y must have the same first dimension")
        self._fitted_shape = traces.shape[1:]
        self._forests = []
        plans = []
        rngs = spawn_rngs(self._rng, 2 * len(self.windows))
        for k, window in enumerate(self.windows):
            inst = sliding_windows(traces, window)
            n, p, d = inst.shape
            X = inst.reshape(n * p, d)
            yy = np.repeat(y, p)
            if X.shape[0] > self.max_instances:
                sel = rngs[2 * k].choice(
                    X.shape[0], size=self.max_instances, replace=False
                )
                X, yy = X[sel], yy[sel]
            forest = RandomForestRegressor(
                n_estimators=self.n_estimators,
                max_depth=self.max_depth,
                min_samples_leaf=3,
                n_jobs=self.n_jobs,
                rng=rngs[2 * k + 1],
            )
            plans.append(forest.plan_fit(X, yy))
            self._forests.append(forest)
        # All window forests' trees drain through one pool pass.
        fit_plans(plans, n_jobs=self.n_jobs)
        return self

    def transform(self, traces: np.ndarray) -> np.ndarray:
        """Map traces to representational features.

        Returns (n_samples, total_positions) — the concatenated per-
        position predictions of every window forest.

        Windows that repeat anywhere in the call are predicted once.  A
        window forest sees only a window's content, so windows are
        grouped exactly by content across all samples: first the
        distinct tick columns, then each distinct run of ``w`` column
        labels and each distinct column's ``h``-row segment at every row
        offset, then each window of a run at a row offset as the tuple
        of its ``w`` segment labels.  One window per group is predicted,
        and its prediction fills every position in the group.  Contents
        compare as float bits, so a NaN matches only the same NaN bits
        and 0.0 and -0.0 differ.  Noise-free nominal traces repeat
        segments across samples, columns and row offsets; noisy traces
        repeat no column, and then every window is predicted directly.
        The result is bit-identical to predicting every position.  The
        counters ``mgs.window_rows`` and ``mgs.window_rows_predicted``
        record both row counts.
        """
        if self._fitted_shape is None:
            raise RuntimeError("scanner is not fitted")
        traces = np.ascontiguousarray(traces, dtype=float)
        if traces.shape[1:] != self._fitted_shape:
            raise ValueError(
                f"trace shape {traces.shape[1:]} != fitted {self._fitted_shape}"
            )
        n, H, W = traces.shape
        # A tick column is a key of H parts, its float bits.
        col_label, col_first = _content_groups(
            traces.view(np.uint64).transpose(1, 0, 2).reshape(H, n * W)
        )
        repeats = col_first.shape[0] < n * W
        # The distinct columns, (n_distinct, H), and each tick's label.
        columns = traces.view(np.uint64)[col_first // W, :, col_first % W]
        col_label = col_label.reshape(n, W).astype(np.uint64)
        feats = []
        for (h, w), forest in zip(self.windows, self._forests):
            n_rows, n_cols = H - h + 1, W - w + 1
            views = sliding_window_view(traces, (h, w), axis=(1, 2))
            if repeats:
                # Each distinct run of w column labels once ...
                run_keys = _run_keys(col_label, w)
                run_label, run_first = _content_groups(run_keys)
                runs = run_keys[:, run_first]
                run_s, run_j = np.divmod(run_first, n_cols)
                # ... and each distinct column's h-row segment at every
                # row offset once; a window of a run at a row offset is
                # then the tuple of its w segment labels.
                seg_label, _ = _content_groups(_run_keys(columns, h))
                seg_label = seg_label.reshape(-1, n_rows).astype(np.uint64)
                label, first = _content_groups(seg_label[runs].reshape(w, -1))
                run, r = np.divmod(first, n_rows)
                rows = views[run_s[run], r, run_j[run]].reshape(-1, h * w)
                pred = forest.predict(rows)[label].reshape(-1, n_rows)
                pred = pred[run_label.reshape(n, n_cols)].transpose(0, 2, 1)
            else:
                rows = views.reshape(-1, h * w)
                pred = forest.predict(rows)
            feats.append(pred.reshape(n, n_rows * n_cols))
            telemetry.counter_inc("mgs.window_rows", n * n_rows * n_cols)
            telemetry.counter_inc("mgs.window_rows_predicted", rows.shape[0])
        return np.concatenate(feats, axis=1)

    def fit_transform(self, traces: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.fit(traces, y).transform(traces)

    def n_features(self) -> int:
        """Total representational features produced per sample."""
        if self._fitted_shape is None:
            raise RuntimeError("scanner is not fitted")
        H, W = self._fitted_shape
        return sum((H - h + 1) * (W - w + 1) for h, w in self.windows)
