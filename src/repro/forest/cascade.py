"""Cascade levels: the deep-learning half of the deep forest.

Each cascade level hosts an ensemble of forests (the paper: 4 per
level, alternating random and completely-random for diversity).  A
forest's out-of-fold predictions become *concept features* appended to
the input of the next level — layer-by-layer training with no back
propagation, which is why deep forests are stable where CNNs are not
(Figure 5).

Training parallelism is hoisted to the level: all trees of all forests
of a level — including every cross-fit fold model — are planned first
(:func:`_plan_cross_fit`, consuming RNG in the same order the old
sequential loop did), executed through one
:func:`repro.forest.parallel.fit_plans` pass, and read back out of fold
(:func:`_collect_out_of_fold`), so ``n_jobs`` scales across the whole
level rather than within one small forest at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro._util import as_rng, spawn_rngs
from repro.forest.ensemble import (
    CompletelyRandomForestRegressor,
    RandomForestRegressor,
)
from repro.forest.fast_inference import PackedForest, tree_mean
from repro.forest.parallel import fit_plans


def _plan_cross_fit(make_model, X, y, k: int, rng):
    """Draw the fold split and build one model per fold.

    Models are constructed and planned in fold order, so RNG use matches
    the old fit-as-you-go loop; predictions consume no RNG and happen
    after execution.  Models without ``plan_fit`` (the baselines) are
    fitted here, in place, and contribute no plan.
    """
    n = X.shape[0]
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise ValueError(f"need at least k={k} samples, got {n}")
    folds = np.array_split(as_rng(rng).permutation(n), k)
    models, plans = [], []
    for fold in folds:
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        model = make_model()
        if hasattr(model, "plan_fit"):
            plans.append(model.plan_fit(X[mask], y[mask]))
        else:
            model.fit(X[mask], y[mask])
        models.append(model)
    return models, folds, plans


def _collect_out_of_fold(models, folds, X) -> np.ndarray:
    out = np.empty(X.shape[0])
    for model, fold in zip(models, folds):
        out[fold] = model.predict(X[fold])
    return out


def _pack_group(forests) -> PackedForest:
    """One pack over every tree of a group of forests, forest by forest."""
    sizes = {len(f.trees_) for f in forests}
    assert len(sizes) == 1, f"forests of one group differ in tree count: {sizes}"
    return PackedForest.from_trees([t for f in forests for t in f.trees_])


def _forest_means(pack: PackedForest, n_forests: int, X) -> np.ndarray:
    """(n_forests, n) per-forest means from one traversal of a group pack.

    Bit-identical to each forest's own ``predict``: the mean over a
    forest's block of trees sums the same rows in the same order.
    """
    per_tree = pack.predict_per_tree(X)
    blocks = per_tree.reshape(n_forests, pack.n_trees // n_forests, per_tree.shape[1])
    return tree_mean(blocks.transpose(1, 0, 2))


@dataclass
class _Level:
    """A fitted cascade level; ``pack`` holds all its forests' trees."""

    forests: list
    n_input_features: int
    pack: PackedForest


@dataclass
class CascadeForest:
    """Stacked cascade levels ending in an averaged output ensemble.

    Parameters
    ----------
    n_levels:
        Cascade depth (paper: 4).
    forests_per_level:
        Forests per level (paper: 4), alternating random /
        completely-random.
    n_estimators:
        Trees per forest (paper: 100).
    k_folds:
        Cross-fitting folds for concept features.
    n_jobs:
        Process-pool width for tree fitting; the pool spans a whole
        level (every fold model and refit of every forest).  Results
        are bit-identical for every value.
    """

    n_levels: int = 4
    forests_per_level: int = 4
    n_estimators: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 2
    k_folds: int = 3
    n_jobs: int = 1
    rng: object = None
    _levels: list[_Level] = field(default_factory=list, init=False)
    _output_forests: list = field(default_factory=list, init=False)
    _output_pack: PackedForest | None = field(default=None, init=False)
    _n_raw_features: int = field(default=0, init=False)
    #: Out-of-fold MSE per grown level (diagnostic; filled by fit).
    level_scores_: list[float] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.n_levels < 1 or self.forests_per_level < 1:
            raise ValueError("n_levels and forests_per_level must be >= 1")
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        self._rng = as_rng(self.rng)

    def _make_forest(self, j: int, rng):
        cls = (
            RandomForestRegressor
            if j % 2 == 0
            else CompletelyRandomForestRegressor
        )
        return cls(
            n_estimators=self.n_estimators,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            rng=rng,
        )

    def fit(self, X, y) -> "CascadeForest":
        X = np.ascontiguousarray(X, dtype=float)
        y = np.ascontiguousarray(y, dtype=float)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError(f"bad shapes: X {X.shape}, y {y.shape}")
        self._n_raw_features = X.shape[1]
        self._levels = []
        self.level_scores_ = []
        current = X
        n = X.shape[0]
        n_rngs = self.n_levels * self.forests_per_level * 2 + self.forests_per_level
        rngs = iter(spawn_rngs(self._rng, n_rngs))
        for level_idx in range(self.n_levels):
            # Plan the whole level — every forest's fold models and
            # full-data refit — then execute through one pool pass.
            level_span = telemetry.span(
                "stage2.cascade.level",
                level=level_idx,
                n_features=int(current.shape[1]),
                forests=self.forests_per_level,
            )
            with level_span:
                forests, plans, fold_infos = [], [], []
                for j in range(self.forests_per_level):
                    fold_rng = next(rngs)
                    fit_rng = next(rngs)
                    models, folds, fold_plans = _plan_cross_fit(
                        lambda j=j, r=fit_rng: self._make_forest(j, r),
                        current,
                        y,
                        k=self.k_folds,
                        rng=fold_rng,
                    )
                    plans += fold_plans
                    # Refit on the full data for inference-time transforms.
                    forest = self._make_forest(j, fit_rng)
                    plans.append(forest.plan_fit(current, y))
                    forests.append(forest)
                    fold_infos.append((models, folds))
                fit_plans(plans, n_jobs=self.n_jobs)
                concepts = np.empty((n, self.forests_per_level))
                for j, (models, folds) in enumerate(fold_infos):
                    concepts[:, j] = _collect_out_of_fold(models, folds, current)
                self._levels.append(
                    _Level(
                        forests=forests,
                        n_input_features=current.shape[1],
                        pack=_pack_group(forests),
                    )
                )
                current = np.concatenate([current, concepts], axis=1)
                # Level quality: out-of-fold error of the concept average.
                score = float(np.mean((concepts.mean(axis=1) - y) ** 2))
                self.level_scores_.append(score)
                level_span.set_attr("oof_mse", score)
            telemetry.gauge_set(
                f"cascade.level{level_idx}.oof_mse", score
            )
            telemetry.counter_inc("cascade.levels_grown")
        # Final output ensemble averages forests_per_level forests.
        self._output_forests = []
        out_plans = []
        with telemetry.span(
            "stage2.cascade.output", forests=self.forests_per_level
        ):
            for j in range(self.forests_per_level):
                forest = self._make_forest(j, next(rngs))
                out_plans.append(forest.plan_fit(current, y))
                self._output_forests.append(forest)
            fit_plans(out_plans, n_jobs=self.n_jobs)
        self._output_pack = _pack_group(self._output_forests)
        return self

    def _propagate(self, X) -> np.ndarray:
        """Append every level's concept columns, one traversal per level."""
        current = np.ascontiguousarray(X, dtype=float)
        for level in self._levels:
            if current.shape[1] != level.n_input_features:
                raise ValueError(
                    f"expected {level.n_input_features} features, got "
                    f"{current.shape[1]}"
                )
            concepts = _forest_means(level.pack, len(level.forests), current)
            current = np.concatenate([current, concepts.T], axis=1)
        return current

    def predict(self, X) -> np.ndarray:
        if not self._output_forests:
            raise RuntimeError("cascade is not fitted")
        current = self._propagate(X)
        means = _forest_means(self._output_pack, len(self._output_forests), current)
        out = np.zeros(current.shape[0])
        for p in means:
            out += p
        return out / len(self._output_forests)

    def concept_features(self, X) -> np.ndarray:
        """The concept columns appended across all levels.

        These are the learned groupings Section 5 clusters to gain
        system insight (and the "queueing + concepts" Figure 6 variant).
        """
        if not self._levels:
            raise RuntimeError("cascade is not fitted")
        full = self._propagate(X)
        return full[:, self._n_raw_features :]
