"""Tests for the future-work architectures: LSTM and residual MLP."""

import numpy as np
import pytest

from repro.baselines import LSTMRegressor, ResidualMLPRegressor


def temporal_data(n=120, C=6, T=12, rng=0):
    """Target depends on the *trend* of one counter over time — signal an
    LSTM can read but a static summary misses."""
    r = np.random.default_rng(rng)
    traces = r.normal(0, 0.3, size=(n, C, T))
    slope = r.uniform(-1, 1, size=n)
    ramp = np.linspace(0, 1, T)
    traces[:, 2, :] += slope[:, None] * ramp[None, :]
    y = 0.5 + 0.4 * slope
    return traces, y


class TestLSTM:
    def test_learns_temporal_trend(self):
        traces, y = temporal_data(n=200, rng=1)
        m = LSTMRegressor(n_hidden=16, epochs=60, lr=5e-3, rng=0)
        m.fit(None, traces, y)
        pred = m.predict(None, traces)
        assert np.corrcoef(pred, y)[0, 1] > 0.8

    def test_generalizes(self):
        tr, ytr = temporal_data(n=250, rng=2)
        te, yte = temporal_data(n=80, rng=3)
        m = LSTMRegressor(n_hidden=16, epochs=60, lr=5e-3, rng=0)
        m.fit(None, tr, ytr)
        pred = m.predict(None, te)
        assert np.corrcoef(pred, yte)[0, 1] > 0.7

    def test_loss_decreases(self):
        traces, y = temporal_data(n=80, rng=4)
        m = LSTMRegressor(n_hidden=8, epochs=25, rng=0).fit(None, traces, y)
        assert m.loss_history_[-1] < m.loss_history_[0]

    def test_flat_features_path(self):
        traces, y = temporal_data(n=60, rng=5)
        flat = np.random.default_rng(6).normal(size=(60, 3))
        m = LSTMRegressor(n_hidden=8, epochs=5, rng=0).fit(flat, traces, y)
        assert m.predict(flat, traces).shape == (60,)
        with pytest.raises(ValueError):
            m.predict(None, traces)

    def test_validation(self):
        with pytest.raises(ValueError):
            LSTMRegressor(n_hidden=0)
        with pytest.raises(ValueError):
            LSTMRegressor(lr=0)
        with pytest.raises(ValueError):
            LSTMRegressor().fit(None, None, np.zeros(3))
        with pytest.raises(RuntimeError):
            LSTMRegressor().predict(None, np.zeros((2, 3, 4)))

    def test_seed_variance(self):
        traces, y = temporal_data(n=80, rng=7)
        p1 = LSTMRegressor(n_hidden=8, epochs=10, rng=1).fit(None, traces, y)
        p2 = LSTMRegressor(n_hidden=8, epochs=10, rng=2).fit(None, traces, y)
        assert not np.allclose(
            p1.predict(None, traces), p2.predict(None, traces)
        )


class TestResidualMLP:
    def test_learns_nonlinear(self):
        r = np.random.default_rng(8)
        X = r.uniform(-1, 1, size=(400, 3))
        y = np.sin(3 * X[:, 0]) * X[:, 1] + X[:, 2] ** 2
        m = ResidualMLPRegressor(width=32, n_blocks=2, epochs=150, rng=0)
        m.fit(X, y)
        assert np.mean((m.predict(X) - y) ** 2) < 0.15 * np.var(y)

    def test_deep_stack_still_trains(self):
        """Skip connections keep a deep stack trainable."""
        r = np.random.default_rng(9)
        X = r.normal(size=(200, 4))
        y = X[:, 0] * 2 + 1
        m = ResidualMLPRegressor(width=16, n_blocks=6, epochs=100, lr=3e-3, rng=0)
        m.fit(X, y)
        assert m.loss_history_[-1] < 0.3

    def test_loss_decreases(self):
        r = np.random.default_rng(10)
        X = r.normal(size=(150, 3))
        y = X[:, 1]
        m = ResidualMLPRegressor(epochs=30, rng=0).fit(X, y)
        assert m.loss_history_[-1] < m.loss_history_[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            ResidualMLPRegressor(n_blocks=0)
        with pytest.raises(ValueError):
            ResidualMLPRegressor().fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(RuntimeError):
            ResidualMLPRegressor().predict(np.zeros((1, 2)))


@pytest.mark.parametrize("shape", [(4, 12), (4, 2, 3, 12)])
def test_lstm_rejects_traces_that_are_not_3d(shape):
    with pytest.raises(ValueError, match=r"\(n, C, T\)"):
        LSTMRegressor(epochs=1, rng=0).fit(None, np.zeros(shape), np.zeros(4))
