"""Tests for the plan/execute fit split and the process pool.

The acceptance bar: every forest must produce bit-identical trees to
the pre-refactor per-forest loop, for every ``n_jobs``.
"""

import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import telemetry
from repro._util import spawn_rngs
from repro.baselines.dtree import DecisionTreeBaseline
from repro.forest import (
    CascadeForest,
    CompletelyRandomForestRegressor,
    MultiGrainScanner,
    RandomForestRegressor,
    RegressionTree,
)
from repro.forest import parallel as parallel_mod
from repro.forest.deep_forest import DeepForestRegressor
from repro.forest.fast_inference import _CHUNK_ROWS

from .forest_oracle import predict_per_tree_oracle
from .test_cascade import cross_fit_predict


def friedman_like(n=300, rng=0):
    r = np.random.default_rng(rng)
    X = r.uniform(size=(n, 5))
    y = 10 * np.sin(np.pi * X[:, 0] * X[:, 1]) + 20 * (X[:, 2] - 0.5) ** 2
    return X, y + r.normal(0, 0.2, n)


def trees_equal(a: RegressionTree, b: RegressionTree) -> bool:
    return (
        np.array_equal(a._feature_a, b._feature_a)
        and np.array_equal(a._threshold_a, b._threshold_a)
        and np.array_equal(a._left_a, b._left_a)
        and np.array_equal(a._right_a, b._right_a)
        and np.array_equal(a._value_a, b._value_a)
    )


class TestLegacyLoopIdentity:
    """Satellite 1: fitted trees unchanged vs the old fit-as-you-go loop."""

    def test_random_forest_matches_legacy_loop(self):
        X, y = friedman_like(200, rng=4)
        seed = 17
        f = RandomForestRegressor(n_estimators=5, rng=seed).fit(X, y)
        # The pre-refactor loop, reimplemented verbatim: one spawned rng
        # per tree, bootstrap indices then a tree seed drawn from it.
        parent = np.random.default_rng(seed)
        n = X.shape[0]
        legacy = []
        for t_rng in spawn_rngs(parent, 5):
            sample_idx = t_rng.integers(0, n, size=n)
            t_seed = int(t_rng.integers(0, 2**62))
            legacy.append(
                RegressionTree(
                    max_features="sqrt", splitter="best", rng=t_seed
                ).fit(X[sample_idx], y[sample_idx])
            )
        assert all(trees_equal(a, b) for a, b in zip(f.trees_, legacy))

    def test_completely_random_matches_legacy_loop(self):
        X, y = friedman_like(150, rng=8)
        seed = 3
        f = CompletelyRandomForestRegressor(n_estimators=4, rng=seed).fit(X, y)
        parent = np.random.default_rng(seed)
        legacy = []
        for t_rng in spawn_rngs(parent, 4):
            t_seed = int(t_rng.integers(0, 2**62))
            legacy.append(
                RegressionTree(
                    max_features=None, splitter="random", rng=t_seed
                ).fit(X, y)
            )
        assert all(trees_equal(a, b) for a, b in zip(f.trees_, legacy))


@pytest.mark.parametrize(
    "cls", [RandomForestRegressor, CompletelyRandomForestRegressor]
)
class TestForestPoolIdentity:
    def test_n_jobs_bit_identical(self, cls):
        X, y = friedman_like(150)
        f1 = cls(n_estimators=4, rng=11).fit(X, y)
        f2 = cls(n_estimators=4, n_jobs=2, rng=11).fit(X, y)
        assert all(trees_equal(a, b) for a, b in zip(f1.trees_, f2.trees_))
        assert np.array_equal(f1.predict(X), f2.predict(X))


class TestPoolPath:
    @pytest.mark.parametrize("ctx", ["spawn", "forkserver"])
    def test_pickling_start_methods_bit_identical(self, monkeypatch, ctx):
        # Under spawn/forkserver the training arrays are pickled once per
        # worker through the pool initializer; the trees must not change.
        X, y = friedman_like(120)
        f1 = RandomForestRegressor(n_estimators=3, rng=2).fit(X, y)
        monkeypatch.setattr(
            parallel_mod,
            "ProcessPoolExecutor",
            functools.partial(
                ProcessPoolExecutor,
                mp_context=multiprocessing.get_context(ctx),
            ),
        )
        f2 = RandomForestRegressor(n_estimators=3, n_jobs=2, rng=2).fit(X, y)
        assert all(trees_equal(a, b) for a, b in zip(f1.trees_, f2.trees_))

    def test_pooled_telemetry_matches_serial(self):
        X, y = friedman_like(90, rng=2)
        kw = dict(n_levels=2, forests_per_level=2, n_estimators=3, k_folds=3)
        fits, counts = [], []
        for n_jobs in (1, 2):
            reg = telemetry.configure()
            try:
                fits.append(CascadeForest(rng=5, n_jobs=n_jobs, **kw).fit(X, y))
            finally:
                telemetry.disable()
            counts.append(
                (
                    reg.counter("forest.trees_fitted"),
                    reg.histogram("forest.tree_fit_seconds").count,
                )
            )
        # (2 levels x 2 forests x (3 folds + refit) + 2 output) x 3 trees.
        assert counts[0] == counts[1] == (54, 54)
        assert np.array_equal(fits[0].predict(X), fits[1].predict(X))
        assert fits[0].level_scores_ == fits[1].level_scores_

    def test_fit_plans_validation(self):
        with pytest.raises(ValueError):
            parallel_mod.fit_plans([], n_jobs=0)
        assert parallel_mod.fit_plans([], n_jobs=1) == []


class TestCascadeIdentity:
    def test_cascade_n_jobs_bit_identical(self):
        X, y = friedman_like(120, rng=2)
        kw = dict(
            n_levels=2, forests_per_level=2, n_estimators=3, k_folds=3
        )
        c1 = CascadeForest(rng=5, **kw).fit(X, y)
        c2 = CascadeForest(rng=5, n_jobs=2, **kw).fit(X, y)
        assert np.array_equal(c1.predict(X), c2.predict(X))
        assert np.array_equal(c1.concept_features(X), c2.concept_features(X))
        assert c1.level_scores_ == c2.level_scores_

    def test_cross_fit_predict_n_jobs_identity(self):
        X, y = friedman_like(90, rng=3)
        make = lambda: RandomForestRegressor(n_estimators=3, rng=7)
        p1 = cross_fit_predict(make, X, y, k=3, rng=1, n_jobs=1)
        p2 = cross_fit_predict(make, X, y, k=3, rng=1, n_jobs=2)
        assert np.array_equal(p1, p2)

    def test_cross_fit_predict_non_plan_model_fallback(self):
        # Models without plan_fit (the baselines) still cross-fit.
        X, y = friedman_like(60, rng=6)
        p = cross_fit_predict(
            lambda: DecisionTreeBaseline(rng=0), X, y, k=3, rng=2, n_jobs=2
        )
        assert p.shape == (60,)
        assert np.isfinite(p).all()


class TestMGSAndDeepForest:
    def test_mgs_plumbs_n_jobs_and_stays_identical(self):
        # Satellite 2: n_jobs reaches the window forests and the
        # transform is bit-identical for every value.
        r = np.random.default_rng(0)
        traces = r.uniform(size=(40, 12, 12))
        y = traces.mean(axis=(1, 2))
        m1 = MultiGrainScanner(
            windows=[(5, 5)], n_estimators=4, rng=3
        ).fit(traces, y)
        m2 = MultiGrainScanner(
            windows=[(5, 5)], n_estimators=4, n_jobs=2, rng=3
        ).fit(traces, y)
        assert m2.n_jobs == 2
        for f in m2._forests:
            assert f.n_jobs == 2
        assert np.array_equal(m1.transform(traces), m2.transform(traces))

    def test_deep_forest_n_jobs_bit_identical(self):
        r = np.random.default_rng(1)
        traces = r.uniform(size=(45, 10, 10))
        X_flat = traces.reshape(45, -1)[:, :6]
        y = traces.mean(axis=(1, 2))
        kw = dict(
            windows=[(5, 5)],
            mgs_estimators=3,
            n_levels=1,
            forests_per_level=2,
            n_estimators=3,
            k_folds=3,
        )
        d1 = DeepForestRegressor(rng=9, **kw).fit(X_flat, traces, y)
        d2 = DeepForestRegressor(rng=9, n_jobs=2, **kw).fit(X_flat, traces, y)
        assert np.array_equal(
            d1.predict(X_flat, traces), d2.predict(X_flat, traces)
        )


class TestPredictPerTreePacked:
    """``predict_per_tree`` runs the chunked packed traversal at every
    batch size and equals the per-tree oracle bit for bit."""

    def test_small_batch_equals_stacked_loop(self):
        X, y = friedman_like(300, rng=7)
        f = RandomForestRegressor(n_estimators=10, rng=1).fit(X, y)
        Xs = X[:50]
        assert np.array_equal(f.predict_per_tree(Xs), predict_per_tree_oracle(f, Xs))

    def test_large_batch_equals_stacked_loop(self):
        X, y = friedman_like(400, rng=7)
        f = RandomForestRegressor(n_estimators=10, rng=1).fit(X, y)
        Xl = np.tile(X, (2 * _CHUNK_ROWS // 400 + 1, 1))  # spans three chunks
        assert np.array_equal(f.predict_per_tree(Xl), predict_per_tree_oracle(f, Xl))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor(n_estimators=2).predict_per_tree(
                np.zeros((3, 2))
            )


def test_spawn_rngs_rejects_negative_count():
    with pytest.raises(ValueError, match="non-negative"):
        spawn_rngs(0, -1)
    assert spawn_rngs(0, 0) == []
