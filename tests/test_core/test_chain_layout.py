"""Stage 3 replays the chain layout Stage 1 profiled on.

The model reads cache capacities, gross increases and static features
from the same :class:`CollocationConfig` the testbed runs, so they hold
whole LLC ways even where a megabyte reservation is not one.
"""

import numpy as np
import pytest

from repro.core import RuntimeCondition, StacModel
from repro.core.profile_vec import STATIC_FEATURE_NAMES
from repro.core.profiler import Profiler, ProfilerSettings, collocation
from repro.testbed import CollocationRuntime, default_machine, get_machine

CONDITIONS = [
    RuntimeCondition(("redis", "knn"), (0.8, 0.7), (0.5, 1.0)),
    RuntimeCondition(
        ("redis", "knn", "jacobi"), (0.6, 0.8, 0.7), (0.0, np.inf, 1.0)
    ),
]


def _profile(machine, private_mb, shared_mb):
    settings = ProfilerSettings(
        n_queries=150,
        n_windows=2,
        trace_ticks=8,
        private_mb=private_mb,
        shared_mb=shared_mb,
    )
    return Profiler(machine=machine, settings=settings, rng=0).profile(CONDITIONS)


def _model(machine, private_mb, shared_mb, dataset):
    return StacModel(
        machine=machine,
        learner="linear",
        private_mb=private_mb,
        shared_mb=shared_mb,
        sim_queries=300,
        rng=0,
    ).fit(dataset)


@pytest.fixture(scope="module")
def unshared():
    """Rows profiled on the default machine with no shared regions."""
    return _profile(default_machine(), 2.0, 0.0)


def _spy_service_times(monkeypatch, model):
    """Record the default service time of every condition Stage 3 simulates."""
    seen = []
    real = model.rt_model.simulate_many

    def spy(conds):
        seen.extend(c["mean_service_time"] for c in conds)
        return real(conds)

    monkeypatch.setattr(model.rt_model, "simulate_many", spy)
    return seen


def _base_service_times(machine, condition):
    """The testbed's ``1 / base_rate`` per service of ``condition``."""
    cfg = collocation(condition, machine, 2.0, 2.0)
    run = CollocationRuntime(cfg, rng=0).run(n_queries=20)
    return [1.0 / s.base_rate for s in run.services]


def test_static_block_matches_profiler_without_sharing(unshared):
    model = _model(default_machine(), 2.0, 0.0, unshared)
    n_static = len(STATIC_FEATURE_NAMES)
    predictions = model.predict_conditions(CONDITIONS)
    for row in unshared.rows:
        pred = predictions[CONDITIONS.index(row.condition)]
        assert np.array_equal(pred.X_flat[row.service_idx, :n_static], row.x_static)


class TestDefaultServiceTime:
    """2 MB is one 3 MB way on platinum-8275-s0, so services run faster
    than at their baseline capacity."""

    MACHINE = get_machine("platinum-8275-s0")

    @pytest.fixture(scope="class")
    def model_and_rows(self):
        rows = _profile(self.MACHINE, 2.0, 2.0)
        return _model(self.MACHINE, 2.0, 2.0, rows), rows

    def test_predict_conditions(self, model_and_rows, monkeypatch):
        model, _ = model_and_rows
        seen = _spy_service_times(monkeypatch, model)
        model.predict_conditions(CONDITIONS)
        expected = [
            t for c in CONDITIONS for t in _base_service_times(self.MACHINE, c)
        ]
        assert min(expected) < 1.0
        assert seen == pytest.approx(expected * model.n_iterations)

    def test_predict_rows(self, model_and_rows, monkeypatch):
        model, rows = model_and_rows
        seen = _spy_service_times(monkeypatch, model)
        model.predict_rows(rows)
        expected = [
            _base_service_times(self.MACHINE, r.condition)[r.service_idx]
            for r in rows.rows
        ]
        assert seen == pytest.approx(expected)


@pytest.mark.parametrize(
    "private_mb,workloads,match",
    [
        (14.0, ("redis", "knn", "jacobi"), "ways"),  # 3 x 7 > 20 ways
        (2.0, ("redis",) * 9, "cores"),  # 16 cores host 8 services
    ],
)
def test_unlayable_chain_raises(unshared, private_mb, workloads, match):
    model = _model(default_machine(), private_mb, 0.0, unshared)
    n = len(workloads)
    condition = RuntimeCondition(workloads, (0.5,) * n, (1.0,) * n)
    with pytest.raises(ValueError, match=match):
        model.predict_condition(condition)
