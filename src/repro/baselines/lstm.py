"""NumPy LSTM regressor over counter traces.

Section 4.1's future work proposes "more complicated neural network
structures, e.g., residual and long short-term memory (LSTM) networks"
for the reliability/accuracy trade-off.  This is a from-scratch LSTM
with full backpropagation through time, reading the trace column-by-
column (each sampling tick is one step, counters are the step features).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.mlp import _check_sizes, _Dense, _Network


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))


def _to_sequence(traces):
    """(n, C, T) counter traces -> (n, T, C) step sequences."""
    if traces is None:
        return None
    t = np.ascontiguousarray(traces, dtype=float)
    if t.ndim != 3:
        raise ValueError(f"traces must be (n, C, T), got {t.shape}")
    return np.swapaxes(t, 1, 2).copy()


class _LSTMCore:
    """One-layer LSTM with BPTT over full sequences."""

    def __init__(self, n_in: int, n_hidden: int, rng):
        scale = 1.0 / np.sqrt(n_in + n_hidden)
        self.Wx = rng.normal(0.0, scale, size=(n_in, 4 * n_hidden))
        self.Wh = rng.normal(0.0, scale, size=(n_hidden, 4 * n_hidden))
        self.b = np.zeros(4 * n_hidden)
        # Positive forget-gate bias: standard trick for gradient flow.
        self.b[n_hidden : 2 * n_hidden] = 1.0
        self.n_hidden = n_hidden

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(n, T, d) -> final hidden state (n, h); caches for backward."""
        n, T, d = x.shape
        h = self.n_hidden
        self._x = x
        self._cache = []
        h_t = np.zeros((n, h))
        c_t = np.zeros((n, h))
        for t in range(T):
            z = x[:, t] @ self.Wx + h_t @ self.Wh + self.b
            i = _sigmoid(z[:, :h])
            f = _sigmoid(z[:, h : 2 * h])
            g = np.tanh(z[:, 2 * h : 3 * h])
            o = _sigmoid(z[:, 3 * h :])
            c_prev = c_t
            c_t = f * c_prev + i * g
            tanh_c = np.tanh(c_t)
            h_prev = h_t
            h_t = o * tanh_c
            self._cache.append((i, f, g, o, c_prev, c_t, tanh_c, h_prev))
        return h_t

    def backward(self, grad_h: np.ndarray) -> None:
        """Accumulate dWx/dWh/db from the gradient of the final hidden."""
        x = self._x
        n, T, d = x.shape
        h = self.n_hidden
        self.dWx = np.zeros_like(self.Wx)
        self.dWh = np.zeros_like(self.Wh)
        self.db = np.zeros_like(self.b)
        dh = grad_h
        dc = np.zeros((n, h))
        for t in reversed(range(T)):
            i, f, g, o, c_prev, c_t, tanh_c, h_prev = self._cache[t]
            do = dh * tanh_c
            dc = dc + dh * o * (1 - tanh_c**2)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dz = np.concatenate(
                [
                    di * i * (1 - i),
                    df * f * (1 - f),
                    dg * (1 - g**2),
                    do * o * (1 - o),
                ],
                axis=1,
            )
            self.dWx += x[:, t].T @ dz
            self.dWh += h_prev.T @ dz
            self.db += dz.sum(axis=0)
            dh = dz @ self.Wh.T
            dc = dc * f
        # Clip to keep BPTT stable on long traces.
        for garr in (self.dWx, self.dWh, self.db):
            np.clip(garr, -5.0, 5.0, out=garr)

    def params_and_grads(self):
        yield self.Wx, self.dWx
        yield self.Wh, self.dWh
        yield self.b, self.db


class LSTMRegressor(_Network):
    """LSTM over (n, C, T) traces, optional flat features at the head."""

    _inputs = (("traces", 3, (0, 1)), ("X_flat", 2, 0))

    def __init__(
        self,
        n_hidden: int = 32,
        epochs: int = 60,
        batch_size: int = 32,
        lr: float = 3e-3,
        rng=None,
    ):
        _check_sizes(n_hidden=n_hidden)
        super().__init__(epochs, batch_size, lr, rng)
        self.n_hidden = n_hidden

    def _build(self, seq, X_flat) -> None:
        extra = 0 if X_flat is None else X_flat.shape[1]
        self._core = _LSTMCore(seq.shape[2], self.n_hidden, self._rng)
        self._head = _Dense(self.n_hidden + extra, 1, self._rng)
        self._layers = [self._head, self._core]

    def _forward(self, seq, X_flat):
        h = self._core.forward(seq)
        if X_flat is not None:
            h = np.concatenate([h, X_flat], axis=1)
        return self._head.forward(h)

    def _backward(self, grad):
        g = self._head.backward(grad)
        self._core.backward(g[:, : self.n_hidden])

    def fit(self, X_flat, traces, y) -> "LSTMRegressor":
        return self._fit(y, _to_sequence(traces), X_flat)

    def predict(self, X_flat, traces) -> np.ndarray:
        return self._predict(_to_sequence(traces), X_flat)
