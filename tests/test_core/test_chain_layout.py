"""Stage 3 replays the chain layout Stage 1 profiled on.

``fit`` adopts the machine and the reservations from the profile, and
the model reads cache capacities, gross increases and static features
from the same :class:`CollocationConfig` the testbed runs, so they hold
whole LLC ways even where a megabyte reservation is not one.
"""

import numpy as np
import pytest

from repro.core import RuntimeCondition, StacModel
from repro.core import rt_model as rt_model_module
from repro.core.profile_vec import STATIC_FEATURE_NAMES
from repro.core.profiler import Profiler, ProfilerSettings, collocation
from repro.testbed import CollocationRuntime, XeonSpec, default_machine, get_machine
from repro.workloads.base import MB

CONDITIONS = [
    RuntimeCondition(("redis", "knn"), (0.8, 0.7), (0.5, 1.0)),
    RuntimeCondition(
        ("redis", "knn", "jacobi"), (0.6, 0.8, 0.7), (0.0, np.inf, 1.0)
    ),
]


def _profile(machine, private_mb, shared_mb, conditions=CONDITIONS, **kw):
    settings = ProfilerSettings(
        **{"n_queries": 150, "n_windows": 2, "trace_ticks": 8, **kw},
        private_mb=private_mb,
        shared_mb=shared_mb,
    )
    return Profiler(machine=machine, settings=settings, rng=0).profile(conditions)


def _model(dataset):
    """A model that adopts ``dataset``'s layout."""
    return StacModel(learner="linear", sim_queries=300, rng=0).fit(dataset)


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
    model = _model(unshared)
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
        return _model(rows), rows

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
def test_unlayable_chain_raises(private_mb, workloads, match):
    # The pair alone fits the ways at either reservation.
    pair = _profile(default_machine(), private_mb, 0.0, CONDITIONS[:1])
    model = _model(pair)
    n = len(workloads)
    condition = RuntimeCondition(workloads, (0.5,) * n, (1.0,) * n)
    with pytest.raises(ValueError, match=match):
        model.predict_condition(condition)


class TestLayoutAdoption:
    """``fit`` adopts the layout from the profile; no second copy exists."""

    def test_fit_adopts_machine_and_reservations(self, e5_2650_dataset):
        model = _model(e5_2650_dataset)
        machine = get_machine("e5-2650")
        assert model.machine == machine
        assert model.settings is e5_2650_dataset.settings
        assert (model.settings.private_mb, model.settings.shared_mb) == (3.0, 1.5)
        assert model.rt_model.n_servers == machine.cores_per_service

    def test_executors_per_service_reach_stage3(self, monkeypatch):
        machine = XeonSpec(
            name="three-core-services",
            n_cores=12,
            llc_bytes=30 * MB,
            llc_ways=20,
            cores_per_service=3,
        )
        model = _model(_profile(machine, 2.0, 2.0, CONDITIONS[:1]))
        assert model.rt_model.n_servers == 3
        servers = []
        real = rt_model_module.simulate_stap_queue

        def spy(arrivals, demands, config):
            servers.append(config.n_servers)
            return real(arrivals, demands, config)

        monkeypatch.setattr(rt_model_module, "simulate_stap_queue", spy)
        model.predict_condition(CONDITIONS[0])
        assert servers and set(servers) == {3}

    def test_predict_rows_rejects_other_layout(self, e5_2650_dataset, unshared):
        model = _model(e5_2650_dataset)
        with pytest.raises(ValueError, match="layout"):
            model.predict_rows(unshared)

    @pytest.mark.parametrize(
        "other",
        [
            {"machine": get_machine("e5-2650")},
            {"private_mb": 3.0},
            {"shared_mb": 1.5},
            {"trace_ticks": 12},
            {"sampling_hz": 0.5},
        ],
        ids=lambda d: next(iter(d)),
    )
    def test_predict_rows_rejects_each_other_layout_value(self, unshared, other):
        """Rows of another machine or reservation, or traced at another
        tick count or rate, would feed the EA model inputs unlike those
        it was fitted on, and Stage 3 another layout."""
        model = _model(unshared)
        same = dict(machine=default_machine(), private_mb=2.0, shared_mb=0.0)
        model.predict_rows(_profile(**same, conditions=CONDITIONS[:1]))
        rows = _profile(**{**same, **other}, conditions=CONDITIONS[:1])
        with pytest.raises(ValueError, match="layout"):
            model.predict_rows(rows)

    @pytest.mark.parametrize(
        "other",
        [
            {"n_queries": 300},
            {"n_windows": 3},
            {"counter_noise": 0.0},
            {"warmup_fraction": 0.2},
        ],
        ids=lambda d: next(iter(d)),
    )
    def test_predict_rows_accepts_other_campaign_sizes(self, unshared, other):
        """Query count, window count, noise and warmup are not layout:
        test conditions may be profiled at more queries."""
        model = _model(unshared)
        rows = _profile(default_machine(), 2.0, 0.0, CONDITIONS[:1], **other)
        assert np.all(np.isfinite(model.predict_rows(rows)["rt_mean"]))

    @pytest.mark.parametrize(
        "option,value",
        [
            ("machine", default_machine()),
            ("private_mb", 2.0),
            ("shared_mb", 2.0),
            ("trace_ticks", 20),
            ("sampling_hz", 1.0),
            ("n_servers", 2),
        ],
    )
    def test_layout_options_removed(self, option, value):
        with pytest.raises(TypeError, match=option):
            StacModel(**{option: value})
