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
    return views.reshape(n, -1, h * w)


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
        """
        if self._fitted_shape is None:
            raise RuntimeError("scanner is not fitted")
        traces = np.asarray(traces, dtype=float)
        if traces.shape[1:] != self._fitted_shape:
            raise ValueError(
                f"trace shape {traces.shape[1:]} != fitted {self._fitted_shape}"
            )
        feats = []
        for window, forest in zip(self.windows, self._forests):
            inst = sliding_windows(traces, window)
            n, p, d = inst.shape
            pred = forest.predict(inst.reshape(n * p, d))
            feats.append(pred.reshape(n, p))
        return np.concatenate(feats, axis=1)

    def fit_transform(self, traces: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.fit(traces, y).transform(traces)

    def n_features(self) -> int:
        """Total representational features produced per sample."""
        if self._fitted_shape is None:
            raise RuntimeError("scanner is not fitted")
        H, W = self._fitted_shape
        return sum((H - h + 1) * (W - w + 1) for h, w in self.windows)
