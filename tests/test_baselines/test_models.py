"""Tests for the baseline models: ridge, decision tree, CNN."""

import numpy as np
import pytest

from repro.baselines import (
    CNNRegressor,
    DecisionTreeBaseline,
    RidgeRegression,
)
from repro.baselines.cnn import CNNHyperParams


class TestRidge:
    def test_recovers_linear_function(self):
        r = np.random.default_rng(0)
        X = r.normal(size=(300, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 0.0]) + 3.0
        m = RidgeRegression(alpha=1e-6).fit(X, y)
        assert np.allclose(m.predict(X), y, atol=1e-6)

    def test_regularization_shrinks_coefficients(self):
        r = np.random.default_rng(1)
        X = r.normal(size=(50, 3))
        y = X[:, 0] * 5 + r.normal(0, 0.1, 50)
        small = RidgeRegression(alpha=0.01).fit(X, y)
        big = RidgeRegression(alpha=1000.0).fit(X, y)
        assert np.abs(big.coef_).sum() < np.abs(small.coef_).sum()

    def test_constant_feature_safe(self):
        X = np.column_stack([np.ones(20), np.arange(20.0)])
        y = np.arange(20.0)
        m = RidgeRegression(alpha=1e-6).fit(X, y)
        assert np.allclose(m.predict(X), y, atol=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            RidgeRegression(alpha=-1)
        with pytest.raises(RuntimeError):
            RidgeRegression().predict(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            RidgeRegression().fit(np.zeros((3, 2)), np.zeros(4))


class TestDecisionTree:
    def test_fits_step_function(self):
        r = np.random.default_rng(2)
        X = r.uniform(size=(200, 3))
        y = np.where(X[:, 0] > 0.5, 1.0, 0.0)
        m = DecisionTreeBaseline(rng=0).fit(X, y)
        assert np.mean((m.predict(X) - y) ** 2) < 0.01

    def test_depth_property(self):
        r = np.random.default_rng(3)
        X = r.uniform(size=(100, 2))
        y = X[:, 0] + X[:, 1]
        m = DecisionTreeBaseline(max_depth=4, rng=0).fit(X, y)
        assert 1 <= m.depth <= 4


class TestCNN:
    def _trace_data(self, n=80, rng=0):
        r = np.random.default_rng(rng)
        t = r.normal(0, 0.2, size=(n, 8, 8))
        y = r.uniform(size=n)
        for i in range(n):
            t[i, 2:5, 2:5] += y[i]
        return t, y

    def test_learns_spatial_signal(self):
        t, y = self._trace_data(n=150)
        params = CNNHyperParams(n_filters=4, kernel=(3, 3), hidden=16, epochs=60)
        m = CNNRegressor(params, rng=0).fit(None, t, y)
        pred = m.predict(None, t)
        assert np.corrcoef(pred, y)[0, 1] > 0.8

    def test_flat_features_accepted(self):
        t, y = self._trace_data(n=60)
        xf = np.random.default_rng(8).normal(size=(60, 3))
        m = CNNRegressor(CNNHyperParams(epochs=5), rng=0).fit(xf, t, y)
        assert m.predict(xf, t).shape == (60,)

    def test_requires_traces(self):
        with pytest.raises(ValueError):
            CNNRegressor().fit(np.zeros((5, 2)), None, np.zeros(5))

    def test_kernel_too_large(self):
        t, y = self._trace_data(n=10)
        with pytest.raises(ValueError):
            CNNRegressor(CNNHyperParams(kernel=(9, 9), epochs=1), rng=0).fit(
                None, t, y
            )

    def test_seed_variance_exists(self):
        t, y = self._trace_data(n=60, rng=9)
        p = CNNHyperParams(epochs=10)
        m1 = CNNRegressor(p, rng=1).fit(None, t, y).predict(None, t)
        m2 = CNNRegressor(p, rng=2).fit(None, t, y).predict(None, t)
        assert not np.allclose(m1, m2)


def test_ridge_coefficients_need_a_fit():
    with pytest.raises(RuntimeError, match="not fitted"):
        RidgeRegression().coef_

