"""DeepForestRegressor: MGS + cascade facade (the Figure 4 architecture)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import as_rng, spawn_rngs
from repro.forest.cascade import CascadeForest
from repro.forest.mgs import MultiGrainScanner


@dataclass
class DeepForestRegressor:
    """Deep forest over (flat features, 2-D trace) profile inputs.

    Structured traces pass through multi-grained scanning; the resulting
    representational features are concatenated with the flat features
    (static + dynamic runtime conditions) and fed to the cascade.

    Parameters mirror the paper's configuration: 4 cascade levels x 4
    forests, 100 estimators each; MGS windows with 50-estimator forests.
    Defaults here are scaled down for tractable profiling datasets; the
    bench harness can raise them.

    ``n_jobs`` spreads tree training across a process pool, one pass
    per training unit (all MGS window forests together; each cascade
    level's forests, fold models included, together); the fitted model
    is bit-identical for every ``n_jobs``.
    """

    windows: list[tuple[int, int]] | None = field(
        default_factory=lambda: [(5, 5), (10, 10)]
    )
    mgs_estimators: int = 30
    mgs_max_instances: int = 8000
    n_levels: int = 4
    forests_per_level: int = 4
    n_estimators: int = 60
    max_depth: int | None = None
    min_samples_leaf: int = 2
    k_folds: int = 3
    n_jobs: int = 1
    rng: object = None
    _scanner: MultiGrainScanner | None = field(default=None, init=False)
    _cascade: CascadeForest | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        self._rng = as_rng(self.rng)

    def _assemble(self, X_flat, traces, fit_y=None) -> np.ndarray:
        parts = []
        if X_flat is not None:
            X_flat = np.asarray(X_flat, dtype=float)
            if X_flat.ndim != 2:
                raise ValueError("X_flat must be 2-D")
            parts.append(X_flat)
        if traces is not None and self.windows:
            if fit_y is not None:
                mgs_feats = self._scanner.fit_transform(traces, fit_y)
            else:
                mgs_feats = self._scanner.transform(traces)
            parts.append(mgs_feats)
        elif traces is not None:
            # No windows configured: flatten the trace directly.
            t = np.asarray(traces, dtype=float)
            parts.append(t.reshape(t.shape[0], -1))
        if not parts:
            raise ValueError("need X_flat and/or traces")
        return np.concatenate(parts, axis=1)

    def fit(self, X_flat, traces, y) -> "DeepForestRegressor":
        """Train MGS (when traces given) and the cascade.

        Parameters
        ----------
        X_flat:
            (n, d) static/dynamic condition features, or ``None``.
        traces:
            (n, H, W) cache usage traces, or ``None``.
        y:
            Effective cache allocation targets.
        """
        y = np.asarray(y, dtype=float)
        rng_scan, rng_casc = spawn_rngs(self._rng, 2)
        if traces is not None and self.windows:
            self._scanner = MultiGrainScanner(
                windows=list(self.windows),
                n_estimators=self.mgs_estimators,
                max_instances=self.mgs_max_instances,
                n_jobs=self.n_jobs,
                rng=rng_scan,
            )
        X = self._assemble(X_flat, traces, fit_y=y)
        self._cascade = CascadeForest(
            n_levels=self.n_levels,
            forests_per_level=self.forests_per_level,
            n_estimators=self.n_estimators,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            k_folds=self.k_folds,
            n_jobs=self.n_jobs,
            rng=rng_casc,
        )
        self._cascade.fit(X, y)
        return self

    def predict(self, X_flat, traces) -> np.ndarray:
        if self._cascade is None:
            raise RuntimeError("model is not fitted")
        X = self._assemble(X_flat, traces)
        return self._cascade.predict(X)

    def concept_features(self, X_flat, traces) -> np.ndarray:
        """Learned concepts for clustering/insight (Section 5)."""
        if self._cascade is None:
            raise RuntimeError("model is not fitted")
        X = self._assemble(X_flat, traces)
        return self._cascade.concept_features(X)
