"""NumPy CNN regressor over counter traces.

Substitutes for the paper's PyTorch CNN (trained with TUNE/PipeTune; the
hyper-parameters here are fixed, with no tuner):
an im2col 2-D convolution, ReLU, global pooling-free flatten and dense
head, trained with Adam on MSE over shuffled minibatches.  Back-prop
overwrites weights during training, which is the source of the
run-to-run variance Figure 5 contrasts against deep forests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro._util import as_rng


def _check_sizes(**sizes: int) -> None:
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")


def _check_lr(lr: float) -> None:
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr!r}")


def _moments(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std over rows; a constant feature keeps std 1."""
    mean = a.mean(axis=0, keepdims=True)
    std = a.std(axis=0, keepdims=True)
    std[std == 0] = 1.0
    return mean, std


class _Dense:
    """Fully connected layer with He-initialized weights."""

    def __init__(self, n_in: int, n_out: int, rng):
        self.W = rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_out))
        self.b = np.zeros(n_out)
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.W + self.b

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.dW = self._x.T @ grad
        self.db = grad.sum(axis=0)
        return grad @ self.W.T

    def params_and_grads(self):
        yield self.W, self.dW
        yield self.b, self.db


class _ReLU:
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._mask

    def params_and_grads(self):
        return iter(())


class Adam:
    """Adam optimizer over (param, grad) pairs keyed by identity.

    Call :meth:`step` once per minibatch with every parameter: each call
    advances the bias-correction clock.
    """

    def __init__(self, lr: float = 1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        _check_lr(lr)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t = 0

    def step(self, params_and_grads) -> None:
        self._t += 1
        for p, g in params_and_grads:
            key = id(p)
            m = self._m.setdefault(key, np.zeros_like(p))
            v = self._v.setdefault(key, np.zeros_like(p))
            m += (1 - self.beta1) * (g - m)
            v += (1 - self.beta2) * (g * g - v)
            mh = m / (1 - self.beta1**self._t)
            vh = v / (1 - self.beta2**self._t)
            p -= self.lr * mh / (np.sqrt(vh) + self.eps)


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


class CNNRegressor:
    """Conv -> ReLU -> flatten -> dense -> ReLU -> dense, Adam on MSE.

    ``traces`` are required; ``X_flat``, if given to :meth:`fit`, joins
    the flattened convolution output and must then be given to
    :meth:`predict` too.  Every input and the target are standardized
    over the training rows with :func:`_moments`.
    """

    #: ``(name, ndim)`` of each input, in the order the layers take them.
    _INPUTS = (("traces", 3), ("X_flat", 2))

    def __init__(self, params: CNNHyperParams | None = None, rng=None):
        self.params = params or CNNHyperParams()
        self._rng = as_rng(rng)
        self._scales: list | None = None
        self._layers: list = []
        self.loss_history_: list[float] = []

    def _scaled(self, inputs) -> list[np.ndarray | None]:
        out = []
        for (name, _), x, scale in zip(self._INPUTS, inputs, self._scales):
            if (x is None) != (scale is None):
                raise ValueError(f"{name} must be given iff it was given to fit")
            out.append(None if x is None else (x - scale[0]) / scale[1])
        return out

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
        y = np.ascontiguousarray(y, dtype=float).reshape(-1, 1)
        if traces is None:
            raise ValueError("CNNRegressor requires traces")
        arrays = []
        for (name, ndim), x in zip(self._INPUTS, (traces, X_flat)):
            if x is None:
                arrays.append(None)
                continue
            x = np.ascontiguousarray(x, dtype=float)
            if x.ndim != ndim or x.shape[0] != y.shape[0]:
                raise ValueError(f"bad shapes: {name} {x.shape}, y {y.shape}")
            if not np.all(np.isfinite(x)):
                raise ValueError(f"{name} must be finite")
            arrays.append(x)
        if not np.all(np.isfinite(y)):
            raise ValueError("y must be finite")
        self._scales = [None if x is None else _moments(x) for x in arrays]
        self._y_scale = _moments(y)
        xs = self._scaled(arrays)
        ys = (y - self._y_scale[0]) / self._y_scale[1]
        self._build(*xs)
        opt = Adam(lr=self.params.lr)
        n = y.shape[0]
        batch_size = self.params.batch_size
        self.loss_history_ = []
        for _ in range(self.params.epochs):
            perm = self._rng.permutation(n)
            loss = 0.0
            for s in range(0, n, batch_size):
                idx = perm[s : s + batch_size]
                pred = self._forward(*(None if x is None else x[idx] for x in xs))
                diff = pred - ys[idx]
                loss += float((diff**2).sum())
                self._backward(2.0 * diff / idx.shape[0])
                opt.step(
                    pg for layer in self._layers for pg in layer.params_and_grads()
                )
            self.loss_history_.append(loss / n)
        return self

    def predict(self, X_flat, traces) -> np.ndarray:
        if self._scales is None:
            raise RuntimeError("model is not fitted")
        inputs = (traces, X_flat)
        xs = self._scaled(
            [None if x is None else np.asarray(x, dtype=float) for x in inputs]
        )
        y_mean, y_std = self._y_scale
        return (self._forward(*xs) * y_std + y_mean).ravel()
