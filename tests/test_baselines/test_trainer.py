"""Tests for the minibatch trainer, through the CNN built on it."""

import numpy as np
import pytest

from repro.baselines import CNNRegressor
from repro.baselines.cnn import CNNHyperParams
from repro.baselines.cnn import Adam

N = 24
_r = np.random.default_rng(0)
X = _r.normal(size=(N, 3))
TRACES = _r.normal(size=(N, 4, 6))
Y = X[:, 0] + TRACES[:, 1].mean(axis=1)


def _cnn(**kw):
    return CNNRegressor(CNNHyperParams(n_filters=2, hidden=4, **kw), rng=0)


#: The data the CNN's fit takes, in order.
FIELDS = ("X_flat", "traces", "y")
DATA = {"X_flat": X, "traces": TRACES, "y": Y}


def test_one_adam_step_moves_every_parameter_by_lr(monkeypatch):
    """Adam's first step moves each weight by ``lr`` against its
    gradient.  A clock advanced once per layer instead of once per
    minibatch shrank later layers' steps (a dense head moved ~0.55 lr)."""
    steps = []
    real_step = Adam.step

    def spy(self, params_and_grads):
        pairs = list(params_and_grads)
        before = [p.copy() for p, _ in pairs]
        real_step(self, pairs)
        steps.append([(p - b, g) for (p, g), b in zip(pairs, before)])

    monkeypatch.setattr(Adam, "step", spy)
    lr = 1e-2
    _cnn(epochs=1, batch_size=N, lr=lr).fit(*(DATA[f] for f in FIELDS))
    assert len(steps) == 1
    for move, grad in steps[0]:
        big = np.abs(grad) > 1e-3
        assert big.any()
        np.testing.assert_allclose(np.abs(move[big]), lr, rtol=1e-4)
        np.testing.assert_array_equal(np.sign(move[big]), -np.sign(grad[big]))


@pytest.mark.parametrize("lr", [np.nan, np.inf, 0.0, -1e-3])
def test_adam_rejects_bad_lr(lr):
    with pytest.raises(ValueError, match="lr"):
        Adam(lr=lr)


@pytest.mark.parametrize("lr", [np.nan, np.inf])
def test_network_rejects_non_finite_lr(lr):
    with pytest.raises(ValueError, match="lr"):
        _cnn(lr=lr)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", FIELDS)
def test_fit_rejects_non_finite_values(field, bad):
    data = dict(DATA, **{field: DATA[field].copy()})
    data[field].flat[5] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        _cnn(epochs=1).fit(*(data[f] for f in FIELDS))


@pytest.mark.parametrize(
    "field, bad",
    [
        ("traces", TRACES[:, 0]),  # 2-D traces
        ("X_flat", X[:, 0]),  # 1-D features
        ("X_flat", X[:-1]),  # one row short of y
    ],
)
def test_fit_rejects_bad_shapes(field, bad):
    data = dict(DATA, **{field: bad})
    with pytest.raises(ValueError, match=f"bad shapes: {field}"):
        _cnn(epochs=1).fit(*(data[f] for f in FIELDS))


def test_predict_needs_a_fit():
    with pytest.raises(RuntimeError, match="not fitted"):
        _cnn().predict(X, TRACES)


def test_loss_history_has_one_mean_loss_per_epoch():
    model = _cnn(epochs=30, lr=1e-2).fit(X, TRACES, Y)
    assert len(model.loss_history_) == 30
    assert model.loss_history_[-1] < model.loss_history_[0]


@pytest.mark.parametrize("fit_flat", [True, False])
def test_predict_takes_the_optional_input_iff_fit_did(fit_flat):
    model = _cnn(epochs=1).fit(X if fit_flat else None, TRACES, Y)
    with pytest.raises(ValueError, match="X_flat must be given iff"):
        model.predict(None if fit_flat else X, TRACES)


@pytest.mark.parametrize("field", ["epochs", "batch_size", "hidden", "n_filters"])
def test_cnn_hyper_params_reject_zero(field):
    with pytest.raises(ValueError, match=field):
        CNNHyperParams(**{field: 0})


def test_cnn_hyper_params_have_no_dropout():
    """Nothing read the CNN's drop rate, so it is not a parameter."""
    with pytest.raises(TypeError):
        CNNHyperParams(dropout=0.1)
