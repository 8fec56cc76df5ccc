"""Unit tests for StacModel internals: gross increase, nominal traces,
chain-neighbour conventions."""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ProfileDataset, RuntimeCondition, StacModel
from repro.core import pipeline as pipeline_module
from repro.core.profile_vec import chain_partner
from repro.core.profiler import Profiler, ProfilerSettings
from repro.counters.events import COUNTER_NAMES, N_COUNTERS
from repro.workloads import get_workload

from .pipeline_oracle import boosted_capacity_oracle, nominal_trace_oracle


@functools.cache
def _fitted(trace_ticks=10, private_mb=2.0):
    """A linear model fitted on a one-condition redis/knn profile of the
    default machine at 1 Hz; Stage 3 adopts that profile's layout."""
    settings = ProfilerSettings(
        n_queries=100, n_windows=1, trace_ticks=trace_ticks, private_mb=private_mb
    )
    condition = RuntimeCondition(("redis", "knn"), (0.5, 0.5), (1.0, 1.0))
    dataset = Profiler(settings=settings, rng=0).profile([condition])
    return StacModel(rng=0, learner="linear", sim_queries=300).fit(dataset)


@pytest.fixture
def model():
    return _fitted()


def _layout(model, specs, utils=None):
    """The model's chain layout for ``specs`` (timeouts play no part)."""
    n = len(specs)
    condition = RuntimeCondition(
        workloads=tuple(spec.name for spec in specs),
        utilizations=tuple(utils or (0.5,) * n),
        timeouts=(np.inf,) * n,
    )
    return model._layout(condition)


def _gross_increase(model, n, idx):
    return _layout(model, [get_workload("redis")] * n).gross_increase(idx)


class TestGrossIncrease:
    def test_solo_service(self, model):
        assert _gross_increase(model, 1, 0) == 1.0

    def test_pair_edges(self, model):
        # 2 MB private = 1 way, 2 MB shared = 1 way on the e5-2683.
        assert _gross_increase(model, 2, 0) == pytest.approx(2.0)
        assert _gross_increase(model, 2, 1) == pytest.approx(2.0)

    def test_chain_middle_has_two_regions(self, model):
        assert _gross_increase(model, 3, 1) == pytest.approx(3.0)
        assert _gross_increase(model, 3, 0) == pytest.approx(2.0)
        assert _gross_increase(model, 3, 2) == pytest.approx(2.0)


class TestChainNeighbor:
    def test_conventions(self):
        assert chain_partner(1, 0) is None
        assert chain_partner(2, 0) == 1
        assert chain_partner(2, 1) == 0
        assert chain_partner(3, 0) == 1
        assert chain_partner(3, 1) == 2
        assert chain_partner(3, 2) == 1


def _trace(model, specs, target, utils, boost_fractions):
    """The nominal trace of one service, through the per-round batch."""
    traces = model._nominal_trace(
        [_layout(model, specs, utils)], [np.array(boost_fractions)]
    )
    return traces[0][target]


class TestNominalTrace:
    def test_shape_matches_profiler_convention(self, model):
        specs = [get_workload("redis"), get_workload("knn")]
        trace = _trace(model, specs, 0, (0.9, 0.9), [0.5, 0.2])
        # Own block + chain-neighbour block, trace_ticks columns.
        assert trace.shape == (2 * N_COUNTERS, 10)

    def test_solo_trace_single_block(self, model):
        trace = _trace(model, [get_workload("redis")], 0, (0.9,), [0.5])
        assert trace.shape == (N_COUNTERS, 10)

    def test_boost_fraction_reflected_in_ticks(self, model):
        specs = [get_workload("redis"), get_workload("knn")]
        boost_row = COUNTER_NAMES.index("boost_active")
        full = _trace(model, specs, 0, (0.9, 0.9), [1.0, 0.0])
        none = _trace(model, specs, 0, (0.9, 0.9), [0.0, 0.0])
        assert full[boost_row].mean() == pytest.approx(1.0)
        assert none[boost_row].mean() == 0.0

    def test_partial_boost_fraction(self, model):
        specs = [get_workload("redis"), get_workload("knn")]
        boost_row = COUNTER_NAMES.index("boost_active")
        half = _trace(model, specs, 0, (0.9, 0.9), [0.5, 0.0])
        frac = (half[boost_row] > 0).mean()
        assert 0.3 <= frac <= 0.7

    def test_partner_boost_lowers_boosted_capacity(self, model):
        """When the partner also boosts, the target's boosted-tick LLC
        misses increase (less effective shared capacity)."""
        specs = [get_workload("redis"), get_workload("spstream")]
        miss_row = COUNTER_NAMES.index("llc_load_misses")
        boost_row = COUNTER_NAMES.index("boost_active")
        alone = _trace(model, specs, 0, (0.9, 0.9), [1.0, 0.0])
        contended = _trace(model, specs, 0, (0.9, 0.9), [1.0, 1.0])
        assert np.all(alone[boost_row] > 0)
        assert contended[miss_row].mean() > alone[miss_row].mean()

    def test_default_service_time_scaling(self):
        """Larger private reservations shorten the default service time."""
        m2 = _fitted(private_mb=2.0)
        m6 = _fitted(private_mb=6.0)
        spec = get_workload("redis")
        assert m2._default_service_time(_layout(m2, [spec]), 0) == pytest.approx(1.0)
        assert m6._default_service_time(_layout(m6, [spec]), 0) < 1.0

    def test_boosted_capacity_chain_middle(self, model):
        specs = [get_workload("redis"), get_workload("social"), get_workload("knn")]
        cfg = _layout(model, specs)
        mid = model._boosted_capacity(cfg, 1, np.array([0.0, 1.0, 0.0]))
        edge = model._boosted_capacity(cfg, 0, np.array([1.0, 0.0, 0.0]))
        # The middle service borrows two idle shared regions.
        assert mid > edge


WORKLOAD_NAMES = ("redis", "knn", "social", "spstream", "jacobi")
BOOST_FRACTIONS = (0.0, 1.0, 1.0 - 1e-12, 0.97, 0.5, 0.025)


class TestNominalTraceBatch:
    """One round's batched synthesis equals the per-service oracle,
    block by block, for any mix of 1-, 2- and 3-service conditions."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(WORKLOAD_NAMES),
                    st.floats(0.05, 0.95),
                    st.one_of(
                        st.sampled_from(BOOST_FRACTIONS), st.floats(0.0, 1.0)
                    ),
                ),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([1, 7, 10, 20]),
    )
    def test_matches_oracle(self, conditions, trace_ticks):
        model = _fitted(trace_ticks=trace_ticks)
        specs_per = [[get_workload(w) for w, _, _ in c] for c in conditions]
        utils_per = [tuple(u for _, u, _ in c) for c in conditions]
        boost_per = [np.array([b for _, _, b in c]) for c in conditions]
        layouts = [
            _layout(model, specs, utils) for specs, utils in zip(specs_per, utils_per)
        ]
        traces = model._nominal_trace(layouts, boost_per)
        assert len(traces) == len(conditions)
        for specs, utils, bfs, stacked in zip(
            specs_per, utils_per, boost_per, traces
        ):
            n_blocks = 1 if len(specs) == 1 else 2
            assert stacked.shape == (len(specs), n_blocks * N_COUNTERS, trace_ticks)
            for i in range(len(specs)):
                expected = nominal_trace_oracle(model, specs, i, utils, bfs)
                assert np.array_equal(stacked[i], expected)

    def test_boosted_capacity_matches_oracle(self, model):
        specs = [get_workload("redis"), get_workload("social"), get_workload("knn")]
        bfs = np.array([0.3, 1.0, 0.7])
        cfg = _layout(model, specs)
        for j in range(3):
            assert model._boosted_capacity(cfg, j, bfs) == boosted_capacity_oracle(
                model, specs, j, bfs
            )

    def test_one_synthesis_per_workload(self, model, monkeypatch):
        calls = []
        real = pipeline_module.synthesize_ticks

        def spy(spec, **kwargs):
            calls.append(spec.name)
            return real(spec, **kwargs)

        monkeypatch.setattr(pipeline_module, "synthesize_ticks", spy)
        specs_per = [
            [get_workload("redis"), get_workload("knn")],
            [get_workload("knn"), get_workload("redis"), get_workload("jacobi")],
            [get_workload("redis")],
        ]
        utils_per = [(0.5, 0.6), (0.7, 0.8, 0.9), (0.4,)]
        boost_per = [np.array([0.5, 0.1]), np.array([1.0, 0.0, 0.3]), np.array([0.2])]
        layouts = [
            _layout(model, specs, utils) for specs, utils in zip(specs_per, utils_per)
        ]
        model._nominal_trace(layouts, boost_per)
        assert sorted(calls) == ["jacobi", "knn", "redis"]

    def test_empty_round(self, model):
        assert model._nominal_trace([], []) == []
        assert model.predict_conditions([]) == []


class TestInputBoundary:
    """Non-finite or out-of-range constructor arguments fail loudly."""

    @pytest.mark.parametrize("value", [0, -2])
    def test_n_jobs(self, value):
        with pytest.raises(ValueError, match="n_jobs"):
            StacModel(n_jobs=value)

    def test_fit_rejects_an_empty_dataset(self):
        with pytest.raises(ValueError, match="dataset is empty"):
            StacModel(learner="linear").fit(ProfileDataset())

    def test_predict_rows_rejects_an_empty_dataset(self, model):
        with pytest.raises(ValueError, match="dataset is empty"):
            model.predict_rows(ProfileDataset())


@functools.cache
def _profile_at(hz):
    """One small jacobi/bfs profile of two conditions sampled at ``hz``."""
    conditions = [
        RuntimeCondition(("jacobi", "bfs"), (u, 0.5), (1.0, 1.0)) for u in (0.4, 0.6)
    ]
    settings = ProfilerSettings(
        n_queries=200, n_windows=2, trace_ticks=20, sampling_hz=hz
    )
    return conditions, Profiler(settings=settings, rng=1).profile(conditions)


class TestSamplingRateAdoption:
    """``fit`` adopts the profile's counter sampling rate, as it adopts
    the tick count, so nominal traces count events over the same tick
    length as the traces the EA model was trained on."""

    def test_fit_adopts_dataset_rate(self):
        _, ds = _profile_at(0.2)
        m = StacModel(rng=0, learner="linear", sim_queries=500).fit(ds)
        assert m.settings.sampling_hz == 0.2

    def test_nominal_traces_match_profiled_scale(self):
        conditions, ds = _profile_at(0.2)
        m = StacModel(rng=0, learner="linear", sim_queries=500).fit(ds)
        nominal = np.concatenate(
            [p.traces.ravel() for p in m.predict_conditions(conditions)]
        )
        profiled = ds.traces
        ratio = nominal[nominal != 0].mean() / profiled[profiled != 0].mean()
        # A 1 Hz synthesizer on a 0.2 Hz profile lands near 0.2.
        assert 0.67 < ratio < 1.5

    def test_fit_checks_traces_against_the_settings_tick_count(self):
        """The tick count comes from the settings, so rows traced at
        another count than the settings record are rejected."""
        _, ds = _profile_at(1.0)
        wrong = replace(ds, settings=replace(ds.settings, trace_ticks=12))
        with pytest.raises(ValueError, match="trace_ticks=12"):
            StacModel(rng=0, learner="linear").fit(wrong)
