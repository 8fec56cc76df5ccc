"""Residual MLP regressor (the paper's other future-work architecture).

Residual blocks ``h <- h + W2 relu(W1 h)`` give deep networks usable
gradients; compared against the plain MLP and LSTM in the extended
Figure 5 stability study.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.mlp import _check_sizes, _Dense, _Network, _ReLU


class _ResidualBlock:
    """Two dense layers with a skip connection."""

    def __init__(self, width: int, rng):
        self.fc1 = _Dense(width, width, rng)
        self.relu = _ReLU()
        self.fc2 = _Dense(width, width, rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x + self.fc2.forward(self.relu.forward(self.fc1.forward(x)))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        inner = self.fc1.backward(self.relu.backward(self.fc2.backward(grad)))
        return grad + inner

    def params_and_grads(self):
        yield from self.fc1.params_and_grads()
        yield from self.fc2.params_and_grads()


class ResidualMLPRegressor(_Network):
    """Input projection + N residual blocks + linear head, Adam on MSE."""

    _inputs = (("X", 2, 0),)

    def __init__(
        self,
        width: int = 32,
        n_blocks: int = 3,
        epochs: int = 100,
        batch_size: int = 32,
        lr: float = 1e-3,
        rng=None,
    ):
        _check_sizes(width=width, n_blocks=n_blocks)
        super().__init__(epochs, batch_size, lr, rng)
        self.width = width
        self.n_blocks = n_blocks

    def _build(self, X: np.ndarray) -> None:
        self._proj = _Dense(X.shape[1], self.width, self._rng)
        self._blocks = [
            _ResidualBlock(self.width, self._rng) for _ in range(self.n_blocks)
        ]
        self._head = _Dense(self.width, 1, self._rng)
        self._layers = [self._proj, *self._blocks, self._head]

    def _forward(self, x: np.ndarray) -> np.ndarray:
        h = self._proj.forward(x)
        for blk in self._blocks:
            h = blk.forward(h)
        return self._head.forward(h)

    def _backward(self, grad: np.ndarray) -> None:
        g = self._head.backward(grad)
        for blk in reversed(self._blocks):
            g = blk.backward(g)
        self._proj.backward(g)

    def fit(self, X, y) -> "ResidualMLPRegressor":
        return self._fit(y, X)

    def predict(self, X) -> np.ndarray:
        return self._predict(X)
