"""The Stage 3 fixed point ends on a simulate.

``predict_conditions`` runs ``simulate → inputs → (ea_predict →
simulate → inputs) × (n_iterations − 1)``: the returned EAs are the ones
the returned summaries were simulated with, and the summaries and
nominal inputs (boost fractions among them) equal those of the old
loop, which closed every round with an EA predict (``pipeline_oracle``).
Each ``ea_predict`` is one call over every condition's rows, and matches
one call per condition bit for bit for the forest learners.
"""

import itertools

import numpy as np
import pytest

from repro.core import RuntimeCondition, StacModel
from repro.core.ea_model import LEARNERS
from repro.core.profile_vec import DYNAMIC_FEATURE_NAMES, STATIC_FEATURE_NAMES
from repro.core.profiler import Profiler, ProfilerSettings
from repro.core.sampling import uniform_conditions

from .pipeline_oracle import (
    predict_conditions_oracle,
    predict_conditions_per_condition_oracle,
)

FAST_DF = dict(
    windows=[(5, 5)],
    mgs_estimators=5,
    mgs_max_instances=2000,
    n_levels=1,
    forests_per_level=2,
    n_estimators=10,
)

PAIR = RuntimeCondition(("redis", "social"), (0.9, 0.85), (0.0, 1.0))
CHAIN = RuntimeCondition(("redis", "knn", "jacobi"), (0.8, 0.6, 0.7), (0.5, np.inf, 0.0))
SOLO = RuntimeCondition(("redis",), (0.85,), (0.5,))
#: The ``X_flat`` column that holds each service's simulated boost fraction.
OWN_BOOST = len(STATIC_FEATURE_NAMES) + DYNAMIC_FEATURE_NAMES.index(
    "own_boost_fraction"
)


@pytest.fixture(scope="module")
def chain_model(small_dataset):
    """A deep-forest model on two-block traces (pairs and chains)."""
    return StacModel(rng=0, sim_queries=600, **FAST_DF).fit(small_dataset)


@pytest.fixture(scope="module")
def solo_model():
    """A deep-forest model on one-block traces (solo services)."""
    profiler = Profiler(
        settings=ProfilerSettings(n_queries=300, n_windows=3, trace_ticks=8),
        rng=3,
    )
    dataset = profiler.profile(uniform_conditions(("redis",), n=6, rng=3))
    return StacModel(rng=0, sim_queries=600, **FAST_DF).fit(dataset)


@pytest.fixture(params=["pair", "chain", "solo"])
def case(request, chain_model, solo_model):
    if request.param == "solo":
        return solo_model, SOLO
    return chain_model, PAIR if request.param == "pair" else CHAIN


def _resimulate(model, condition, eas):
    """Stage 3 alone, at the given EAs, with the fixed point's inputs."""
    cfg = model._layout(condition)
    return model.rt_model.simulate_many(
        [
            dict(
                utilization=condition.utilizations[i],
                timeout=condition.timeouts[i],
                gross_increase=cfg.gross_increase(i),
                effective_allocation=float(eas[i]),
                service_cv=svc.workload.service_cv,
                mean_service_time=model._default_service_time(cfg, i),
            )
            for i, svc in enumerate(cfg.services)
        ]
    )


def _at(model, n_iterations, fn, conditions):
    model.n_iterations = n_iterations
    try:
        return fn(conditions)
    finally:
        model.n_iterations = 2


def test_summaries_are_simulated_at_the_returned_eas(case):
    model, condition = case
    got = model.predict_condition(condition)
    feedback = _resimulate(model, condition, got.effective_allocations)
    assert got.summaries == [f.summary for f in feedback]
    assert (
        got.X_flat[:, OWN_BOOST].tobytes()
        == np.array([f.boost_fraction for f in feedback]).tobytes()
    )


@pytest.mark.parametrize("n_iterations", [2, 3])
def test_matches_the_old_loop(case, n_iterations):
    model, condition = case
    got = _at(model, n_iterations, model.predict_conditions, [condition])[0]
    old = _at(
        model, n_iterations, lambda c: predict_conditions_oracle(model, c), [condition]
    )[0]
    assert got.summaries == old.summaries
    for field in ("X_flat", "traces"):
        assert getattr(got, field).tobytes() == getattr(old, field).tobytes(), field
    # The old loop's n - 1 rounds end on the EA the new loop simulates last.
    shorter = _at(
        model,
        n_iterations - 1,
        lambda c: predict_conditions_oracle(model, c),
        [condition],
    )[0]
    assert (
        got.effective_allocations.tobytes() == shorter.effective_allocations.tobytes()
    )


# -- one EA predict per round, over every condition's rows ---------------------

#: Pair and chain conditions: every one has two-block traces, so a round
#: stacks them all into one EA predict.
STACKED = [
    RuntimeCondition(("redis", "social"), (0.9, 0.85), timeouts)
    for timeouts in itertools.product((0.0, 0.5, np.inf), repeat=2)
] + [CHAIN, RuntimeCondition(CHAIN.workloads, CHAIN.utilizations, (0.0,) * 3)]
#: Learners whose row predictions do not depend on the rows beside them.
FOREST_LEARNERS = ("deep_forest", "cascade", "random_forest", "tree")
LEARNER_PARAMS = {
    "deep_forest": FAST_DF,
    "cascade": dict(n_levels=1, forests_per_level=2, n_estimators=10),
    "random_forest": dict(n_estimators=10),
}


@pytest.fixture(scope="module", params=LEARNERS)
def learner_model(request, small_dataset):
    params = LEARNER_PARAMS.get(request.param, {})
    model = StacModel(learner=request.param, rng=0, sim_queries=600, **params)
    return model.fit(small_dataset)


def test_one_ea_predict_per_round_matches_per_condition_predicts(
    learner_model, monkeypatch
):
    model = learner_model
    want = predict_conditions_per_condition_oracle(model, STACKED)
    rows = []
    real = model.ea_model.predict

    def spy(X_flat, traces):
        rows.append(X_flat.shape[0])
        return real(X_flat, traces)

    monkeypatch.setattr(model.ea_model, "predict", spy)
    got = model.predict_conditions(STACKED)
    n_rows = sum(len(c.workloads) for c in STACKED)
    assert rows == [n_rows] * (model.n_iterations - 1)
    for a, b in zip(got, want, strict=True):
        if model.ea_model.learner in FOREST_LEARNERS:
            assert a.summaries == b.summaries
            for field in ("effective_allocations", "X_flat", "traces"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        else:
            # A matrix product rounds by batch size: 1 ulp of EA, which
            # moves the summaries and inputs by ~1e-15.
            for sa, sb in zip(a.summaries, b.summaries, strict=True):
                np.testing.assert_allclose(
                    (sa.mean, sa.p95), (sb.mean, sb.p95), rtol=1e-12
                )
            for field in ("effective_allocations", "X_flat", "traces"):
                np.testing.assert_allclose(
                    getattr(a, field), getattr(b, field), rtol=1e-12, atol=1e-12
                )


def test_no_conditions_run_no_ea_predict(chain_model, monkeypatch):
    def fail(*args):
        raise AssertionError("EA predict on an empty round")

    monkeypatch.setattr(chain_model.ea_model, "predict", fail)
    assert chain_model.predict_conditions([]) == []


def test_a_trace_shape_the_model_was_not_fitted_on_raises(chain_model):
    # A solo condition's one-block traces stack apart from the pairs'
    # two-block ones, and the scanner rejects them as a standalone
    # call would.
    message = r"trace shape \(29, 16\) != fitted \(58, 16\)"
    with pytest.raises(ValueError, match=message):
        chain_model.predict_conditions([PAIR, SOLO, CHAIN])
    with pytest.raises(ValueError, match=message):
        chain_model.predict_condition(SOLO)
