"""Tests for random and completely-random forests."""

import numpy as np
import pytest

from repro.forest import CompletelyRandomForestRegressor, RandomForestRegressor


def friedman_like(n=300, rng=0):
    r = np.random.default_rng(rng)
    X = r.uniform(size=(n, 5))
    y = 10 * np.sin(np.pi * X[:, 0] * X[:, 1]) + 20 * (X[:, 2] - 0.5) ** 2
    return X, y + r.normal(0, 0.2, n)


@pytest.mark.parametrize(
    "cls", [RandomForestRegressor, CompletelyRandomForestRegressor]
)
class TestBothForests:
    def test_fits_nonlinear_function(self, cls):
        X, y = friedman_like()
        Xt, yt = friedman_like(rng=1)
        f = cls(n_estimators=30, rng=0).fit(X, y)
        mse = np.mean((f.predict(Xt) - yt) ** 2)
        assert mse < np.var(yt) * 0.5  # much better than predicting the mean

    def test_reproducible(self, cls):
        X, y = friedman_like(100)
        p1 = cls(n_estimators=5, rng=3).fit(X, y).predict(X)
        p2 = cls(n_estimators=5, rng=3).fit(X, y).predict(X)
        assert np.array_equal(p1, p2)

    def test_predict_before_fit_raises(self, cls):
        with pytest.raises(RuntimeError):
            cls(n_estimators=2).predict(np.zeros((1, 2)))

    def test_per_tree_shape(self, cls):
        X, y = friedman_like(80)
        f = cls(n_estimators=4, rng=0).fit(X, y)
        per_tree = f.predict_per_tree(X[:10])
        assert per_tree.shape == (4, 10)
        assert np.allclose(per_tree.mean(axis=0), f.predict(X[:10]))

    def test_validation(self, cls):
        with pytest.raises(ValueError):
            cls(n_estimators=0)
        with pytest.raises(ValueError):
            cls(n_estimators=2, n_jobs=0)
        with pytest.raises(ValueError):
            cls(n_estimators=2).fit(np.zeros((3, 2)), np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, cls, bad):
        # A NaN target used to fit silently and predict NaN everywhere.
        X, y = friedman_like(40)
        y[7] = bad
        with pytest.raises(ValueError, match="finite"):
            cls(n_estimators=2, rng=0).fit(X, y)


class TestForestContrast:
    def test_ensembling_beats_single_tree(self):
        X, y = friedman_like(400, rng=5)
        Xt, yt = friedman_like(400, rng=6)
        f1 = RandomForestRegressor(n_estimators=1, rng=1).fit(X, y)
        f30 = RandomForestRegressor(n_estimators=30, rng=1).fit(X, y)
        e1 = np.mean((f1.predict(Xt) - yt) ** 2)
        e30 = np.mean((f30.predict(Xt) - yt) ** 2)
        assert e30 < e1

    def test_completely_random_trees_are_deeper_but_diverse(self):
        """Random-threshold trees individually fit worse but still ensemble
        to a reasonable model (the diversity the cascade relies on)."""
        X, y = friedman_like(300, rng=7)
        Xt, yt = friedman_like(300, rng=8)
        crf = CompletelyRandomForestRegressor(n_estimators=30, rng=2).fit(X, y)
        err = np.mean((crf.predict(Xt) - yt) ** 2)
        assert err < np.var(yt)

    def test_parallel_training_matches_serial(self):
        X, y = friedman_like(120, rng=9)
        serial = RandomForestRegressor(n_estimators=4, n_jobs=1, rng=11).fit(X, y)
        parallel = RandomForestRegressor(n_estimators=4, n_jobs=2, rng=11).fit(X, y)
        assert np.allclose(serial.predict(X), parallel.predict(X))
