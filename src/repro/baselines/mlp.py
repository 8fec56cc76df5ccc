"""Back-propagation building blocks: dense layers, Adam and the trainer.

Provides the layers, the optimizer and the one minibatch trainer the
CNN baseline builds on.  Back-prop models overwrite weights during
training, which is the source of the run-to-run variance Figure 5
contrasts against deep forests.
"""

from __future__ import annotations

import math

import numpy as np

from repro._util import as_rng


def _check_sizes(**sizes: int) -> None:
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")


def _check_lr(lr: float) -> None:
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr!r}")


def _moments(a: np.ndarray, axis) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std over ``axis``; a constant slice keeps std 1."""
    mean = a.mean(axis=axis, keepdims=True)
    std = a.std(axis=axis, keepdims=True)
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


class _Network:
    """Adam-on-MSE minibatch trainer of the NumPy networks.

    ``_inputs`` lists each input as ``(name, ndim, scaling axes)``; the
    first is required and the rest may be ``None``.  Every input and
    the target are standardized with :func:`_moments`.  A subclass
    builds its layers in ``_build`` from the scaled training inputs,
    keeps the parameter-holding ones in ``_layers`` and implements
    ``_forward`` and ``_backward`` over scaled minibatches.
    """

    _inputs: tuple[tuple[str, int, int | tuple[int, ...]], ...]
    _scales: list | None = None

    def __init__(self, epochs: int, batch_size: int, lr: float, rng):
        _check_sizes(epochs=epochs, batch_size=batch_size)
        _check_lr(lr)
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self._rng = as_rng(rng)
        self._layers: list = []
        self.loss_history_: list[float] = []

    def _scaled(self, inputs) -> list[np.ndarray | None]:
        out = []
        for (name, _, _), x, scale in zip(self._inputs, inputs, self._scales):
            if (x is None) != (scale is None):
                raise ValueError(f"{name} must be given iff it was given to fit")
            out.append(None if x is None else (x - scale[0]) / scale[1])
        return out

    def _fit(self, y, *inputs):
        y = np.ascontiguousarray(y, dtype=float).reshape(-1, 1)
        arrays = []
        for (name, ndim, _), x in zip(self._inputs, inputs):
            if x is None:
                if not arrays:
                    raise ValueError(f"{type(self).__name__} requires {name}")
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
        self._scales = [
            None if x is None else _moments(x, axes)
            for (_, _, axes), x in zip(self._inputs, arrays)
        ]
        self._y_scale = _moments(y, 0)
        xs = self._scaled(arrays)
        ys = (y - self._y_scale[0]) / self._y_scale[1]
        self._build(*xs)
        opt = Adam(lr=self.lr)
        n = y.shape[0]
        self.loss_history_ = []
        for _ in range(self.epochs):
            perm = self._rng.permutation(n)
            loss = 0.0
            for s in range(0, n, self.batch_size):
                idx = perm[s : s + self.batch_size]
                pred = self._forward(*(None if x is None else x[idx] for x in xs))
                diff = pred - ys[idx]
                loss += float((diff**2).sum())
                self._backward(2.0 * diff / idx.shape[0])
                opt.step(
                    pg for layer in self._layers for pg in layer.params_and_grads()
                )
            self.loss_history_.append(loss / n)
        return self

    def _predict(self, *inputs) -> np.ndarray:
        if self._scales is None:
            raise RuntimeError("model is not fitted")
        xs = self._scaled(
            [None if x is None else np.asarray(x, dtype=float) for x in inputs]
        )
        y_mean, y_std = self._y_scale
        return (self._forward(*xs) * y_std + y_mean).ravel()
