"""Stage 2: learn effective cache allocation from profile data.

The learner is pluggable so the Figure 6 comparison can swap the deep
forest for simpler models while keeping the rest of the pipeline fixed.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from repro._util import as_rng
from repro.baselines.cnn import CNNHyperParams, CNNRegressor
from repro.baselines.dtree import DecisionTreeBaseline
from repro.baselines.linreg import RidgeRegression
from repro.core.profile_vec import ProfileDataset
from repro.forest.deep_forest import DeepForestRegressor
from repro.forest.ensemble import RandomForestRegressor

LEARNERS = (
    "deep_forest",  # full: MGS + cascade (the paper's model)
    "cascade",      # cascade without MGS ("queueing + concepts" variant)
    "random_forest",  # simple ML (Figure 8e)
    "tree",
    "linear",
    "cnn",
)


class EAModel:
    """Effective-cache-allocation predictor over profile rows.

    Parameters
    ----------
    learner:
        One of :data:`LEARNERS`.
    df_params:
        Keyword overrides for :class:`DeepForestRegressor` (windows,
        estimators, levels, ``n_jobs``...).  The forest keys
        (``n_estimators``, ``min_samples_leaf``, ``max_depth``,
        ``n_jobs``) also reach the ``random_forest`` learner; the
        remaining learners ignore them.  A key that is not a
        :class:`DeepForestRegressor` field raises ``TypeError`` for
        every learner, so a misspelt override cannot pass unnoticed.
    """

    #: df_params keys forwarded to the plain random-forest learner.
    _RF_KEYS = ("n_estimators", "min_samples_leaf", "max_depth", "n_jobs")
    #: Every key df_params may carry: the DeepForestRegressor fields.
    _DF_KEYS = frozenset(
        f.name for f in fields(DeepForestRegressor) if f.init and f.name != "rng"
    )

    def __init__(self, learner: str = "deep_forest", rng=None, **df_params):
        if learner not in LEARNERS:
            raise ValueError(f"unknown learner {learner!r}; choose from {LEARNERS}")
        unknown = sorted(set(df_params) - self._DF_KEYS)
        if unknown:
            raise TypeError(
                f"unknown EAModel parameter(s) {unknown}; expected "
                f"DeepForestRegressor fields {sorted(self._DF_KEYS)}"
            )
        self.learner = learner
        self._rng = as_rng(rng)
        self._df_params = df_params
        self._model = None

    @staticmethod
    def _flatten(X_flat: np.ndarray, traces: np.ndarray) -> np.ndarray:
        t = traces.reshape(traces.shape[0], -1)
        return np.concatenate([X_flat, t], axis=1)

    def fit(self, dataset: ProfileDataset) -> "EAModel":
        if len(dataset) == 0:
            raise ValueError("dataset is empty")
        X_flat = dataset.X_flat
        traces = dataset.traces
        y = dataset.y_ea
        for name, values in (("X_flat", X_flat), ("traces", traces), ("y_ea", y)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite (no NaN/inf)")
        if self.learner == "deep_forest":
            params = dict(
                windows=[(5, 5), (10, 10)],
                mgs_estimators=15,
                n_levels=2,
                forests_per_level=4,
                n_estimators=30,
                k_folds=3,
            )
            params.update(self._df_params)
            self._model = DeepForestRegressor(rng=self._rng, **params)
            self._model.fit(X_flat, traces, y)
        elif self.learner == "cascade":
            params = dict(
                windows=None,
                n_levels=2,
                forests_per_level=4,
                n_estimators=30,
                k_folds=3,
            )
            params.update(self._df_params)
            self._model = DeepForestRegressor(rng=self._rng, **params)
            self._model.fit(X_flat, None, y)
        elif self.learner == "random_forest":
            params = dict(n_estimators=40, min_samples_leaf=2)
            params.update(
                {k: v for k, v in self._df_params.items() if k in self._RF_KEYS}
            )
            self._model = RandomForestRegressor(rng=self._rng, **params)
            self._model.fit(self._flatten(X_flat, traces), y)
        elif self.learner == "tree":
            self._model = DecisionTreeBaseline(rng=self._rng)
            self._model.fit(self._flatten(X_flat, traces), y)
        elif self.learner == "linear":
            self._model = RidgeRegression(alpha=1.0)
            self._model.fit(self._flatten(X_flat, traces), y)
        elif self.learner == "cnn":
            self._model = CNNRegressor(
                CNNHyperParams(n_filters=8, kernel=(3, 3), hidden=32, epochs=40),
                rng=self._rng,
            )
            self._model.fit(X_flat, traces, y)
        return self

    def predict(self, X_flat: np.ndarray, traces: np.ndarray | None) -> np.ndarray:
        """Predicted EA, clipped to the physically meaningful range.

        Every learner but ``cascade`` was fitted on the traces too, so
        for those ``traces=None`` raises ``ValueError``.
        """
        if self._model is None:
            raise RuntimeError("EAModel is not fitted")
        if self.learner == "cascade":
            raw = self._model.predict(X_flat, None)
        elif traces is None:
            raise ValueError(
                f"the {self.learner!r} learner was fitted on traces; "
                "predict needs traces, got None"
            )
        elif self.learner in ("deep_forest", "cnn"):
            raw = self._model.predict(X_flat, traces)
        else:
            raw = self._model.predict(self._flatten(X_flat, traces))
        return np.clip(raw, 0.05, 2.0)

    def predict_dataset(self, dataset: ProfileDataset) -> np.ndarray:
        return self.predict(dataset.X_flat, dataset.traces)

    def concept_features(
        self, X_flat: np.ndarray, traces: np.ndarray | None
    ) -> np.ndarray:
        """Learned cascade concepts (deep_forest / cascade learners only)."""
        if self.learner not in ("deep_forest", "cascade"):
            raise ValueError(f"{self.learner!r} has no concept features")
        if self._model is None:
            raise RuntimeError("EAModel is not fitted")
        t = traces if self.learner == "deep_forest" else None
        return self._model.concept_features(X_flat, t)
