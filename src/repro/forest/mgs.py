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


# Elements of one block's (samples, m, m, d) comparison in
# :func:`_first_equal`: samples are compared a block at a time, so the
# temporary stays bounded over a whole training set.
_BLOCK_ELEMENTS = 1 << 18


def _first_equal(items: np.ndarray) -> np.ndarray:
    """(n, m) index of the first item equal to each of a sample's items.

    ``items`` is (n, m, d): ``m`` items of ``d`` values per sample.  An
    item with no earlier equal is its own index.
    """
    n, m, d = items.shape
    first = np.empty((n, m), dtype=np.intp)
    step = max(1, _BLOCK_ELEMENTS // max(1, m * m * d))
    for s in range(0, n, step):
        block = items[s : s + step]
        same = (block[:, :, None] == block[:, None]).all(axis=3)
        first[s : s + step] = same.argmax(axis=2)
    return first


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

        Windows that repeat are predicted once.  Two columns of a trace
        are the same when their bits are, and a
        window's content is fixed by its row offset and the labels of
        the columns it covers; so per sample and window size only the
        first position of each distinct label pattern is predicted, for
        every row offset, and its predictions fill every position that
        repeats it.  Noise-free nominal traces have a few distinct
        columns (a tick is boosted or not), noisy traces none repeated;
        the result is bit-identical to predicting every position.  The
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
        # Columns compared as int64 bits: a NaN column matches only the
        # same NaN bits, and 0.0 and -0.0 differ, so equal labels mean
        # equal forest inputs.
        labels = _first_equal(traces.view(np.int64).transpose(0, 2, 1))
        feats = []
        for (h, w), forest in zip(self.windows, self._forests):
            n_rows, n_cols = H - h + 1, W - w + 1
            rep = _first_equal(sliding_window_view(labels, w, axis=1))
            # Representatives in (sample, column) order; slot[s, j] is
            # the representative's row in ``pred``, read by every
            # position whose pattern it carries.
            rep_s, rep_j = np.nonzero(rep == np.arange(n_cols))
            slot = np.zeros((n, n_cols), dtype=np.intp)
            slot[rep_s, rep_j] = np.arange(rep_s.shape[0])
            views = sliding_window_view(traces, (h, w), axis=(1, 2))
            rows = views[rep_s, :, rep_j].reshape(-1, h * w)
            pred = forest.predict(rows)
            pred = pred.reshape(-1, n_rows)[np.take_along_axis(slot, rep, axis=1)]
            feats.append(pred.transpose(0, 2, 1).reshape(n, n_rows * n_cols))
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
