"""NumPy CNN regressor over counter traces.

Substitutes for the paper's PyTorch CNN (trained with TUNE/PipeTune; the
hyper-parameters here are fixed, with no tuner):
an im2col 2-D convolution, ReLU, global pooling-free flatten and dense
head, trained with Adam on MSE.  Exhibits the back-prop run-to-run
variance Figure 5 measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.baselines.mlp import _check_lr, _check_sizes, _Dense, _Network, _ReLU


class _Conv2D:
    """Valid-padding 2-D convolution via im2col (vectorized matmul)."""

    def __init__(self, n_filters: int, kernel: tuple[int, int], rng):
        self.kh, self.kw = kernel
        fan_in = self.kh * self.kw
        self.W = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, n_filters))
        self.b = np.zeros(n_filters)
        self._cols = None
        self._in_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(n, H, W) -> (n, H-kh+1, W-kw+1, F)."""
        self._in_shape = x.shape
        views = sliding_window_view(x, (self.kh, self.kw), axis=(1, 2))
        n, oh, ow = views.shape[:3]
        cols = views.reshape(n * oh * ow, self.kh * self.kw)
        self._cols = cols
        out = cols @ self.W + self.b
        return out.reshape(n, oh, ow, -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, oh, ow, f = grad.shape
        g = grad.reshape(n * oh * ow, f)
        self.dW = self._cols.T @ g
        self.db = g.sum(axis=0)
        dcols = (g @ self.W.T).reshape(n, oh, ow, self.kh, self.kw)
        dx = np.zeros(self._in_shape)
        for i in range(self.kh):
            for j in range(self.kw):
                dx[:, i : i + oh, j : j + ow] += dcols[:, :, :, i, j]
        return dx

    def params_and_grads(self):
        yield self.W, self.dW
        yield self.b, self.db


@dataclass
class CNNHyperParams:
    """The hyper parameters the paper tunes: epochs, batch size, learning
    rate and neurons (Section 5.1), plus the convolution's shape."""

    n_filters: int = 8
    kernel: tuple[int, int] = (3, 3)
    hidden: int = 32
    epochs: int = 60
    batch_size: int = 32
    lr: float = 1e-3

    def __post_init__(self):
        _check_sizes(
            n_filters=self.n_filters,
            hidden=self.hidden,
            epochs=self.epochs,
            batch_size=self.batch_size,
        )
        _check_lr(self.lr)


class CNNRegressor(_Network):
    """Conv -> ReLU -> flatten -> dense -> ReLU -> dense, Adam on MSE."""

    _inputs = (("traces", 3, 0), ("X_flat", 2, 0))

    def __init__(self, params: CNNHyperParams | None = None, rng=None):
        p = self.params = params or CNNHyperParams()
        super().__init__(p.epochs, p.batch_size, p.lr, rng)

    def _build(self, traces, X_flat) -> None:
        p = self.params
        H, W = traces.shape[1:]
        self._conv = _Conv2D(p.n_filters, p.kernel, self._rng)
        oh, ow = H - p.kernel[0] + 1, W - p.kernel[1] + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"kernel {p.kernel} too large for trace {(H, W)}")
        extra = 0 if X_flat is None else X_flat.shape[1]
        flat = oh * ow * p.n_filters + extra
        self._relu1 = _ReLU()
        self._fc1 = _Dense(flat, p.hidden, self._rng)
        self._relu2 = _ReLU()
        self._fc2 = _Dense(p.hidden, 1, self._rng)
        self._layers = [self._conv, self._fc1, self._fc2]

    def _forward(self, traces, flat_extra):
        c = self._relu1.forward(self._conv.forward(traces))
        n = c.shape[0]
        self._conv_out_shape = c.shape
        flat = c.reshape(n, -1)
        if flat_extra is not None:
            self._extra_width = flat_extra.shape[1]
            flat = np.concatenate([flat, flat_extra], axis=1)
        else:
            self._extra_width = 0
        h = self._relu2.forward(self._fc1.forward(flat))
        return self._fc2.forward(h)

    def _backward(self, grad):
        g = self._fc2.backward(grad)
        g = self._relu2.backward(g)
        g = self._fc1.backward(g)
        if self._extra_width:
            g = g[:, : -self._extra_width]
        g = g.reshape(self._conv_out_shape)
        g = self._relu1.backward(g)
        self._conv.backward(g)

    def fit(self, X_flat, traces, y) -> "CNNRegressor":
        """Train on (flat features, traces, targets); traces required."""
        return self._fit(y, traces, X_flat)

    def predict(self, X_flat, traces) -> np.ndarray:
        return self._predict(traces, X_flat)
