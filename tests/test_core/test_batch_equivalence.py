"""Bit-identity of the Stage 3 search path against reference loops, at
every consumer level: ``simulate_many`` vs the single-condition oracle
on both sides of the kernel switch and with repeated conditions,
``predict_conditions`` vs
``predict_condition``, and ``explore_timeouts`` vs a per-combination
``predict_condition`` loop (including the acceptance guarantee that
``model_driven_policy`` picks the identical vector)."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.core import ResponseTimeModel, RuntimeCondition, StacModel
from repro.core import rt_model as rt_module
from repro.core.policy_search import (
    DEFAULT_TIMEOUT_GRID,
    explore_timeouts,
    model_driven_policy,
    slo_matching,
)
from repro.forest import CascadeForest, MultiGrainScanner
from repro.queueing import ggk

from ..test_forest.forest_oracle import cascade_predict_oracle, mgs_transform_oracle
from .rt_oracle import simulate_oracle

FAST_DF = dict(
    windows=[(5, 5)],
    mgs_estimators=5,
    mgs_max_instances=2000,
    n_levels=1,
    forests_per_level=2,
    n_estimators=10,
)

PAIR = ("redis", "social")
UTILS = (0.9, 0.85)
GRID = (0.0, 0.5, 2.0)
#: The lane count (distinct conditions x segments) from which
#: ``simulate_many`` switches to the batched kernel.  A model of at most
#: ``SEGMENT_QUERIES`` queries has one segment per condition, so tests at
#: that size straddle it at ``THRESHOLD - 1`` and ``THRESHOLD`` distinct
#: conditions and both kernels stay covered whatever its value.
THRESHOLD = ggk.MIN_VECTOR_LANES


@pytest.fixture(scope="module")
def fitted_fast(small_dataset):
    model = StacModel(rng=0, sim_queries=600, **FAST_DF)
    return model.fit(small_dataset)


def _sample_conditions(n):
    rng = np.random.default_rng(42)
    return [
        dict(
            utilization=float(rng.uniform(0.4, 0.95)),
            timeout=float(rng.choice([0.0, 0.5, 1.5, np.inf])),
            gross_increase=float(rng.uniform(1.0, 3.0)),
            effective_allocation=float(rng.uniform(0.3, 1.5)),
            service_cv=float(rng.choice([0.0, 0.35])),
            mean_service_time=float(rng.uniform(0.7, 1.2)),
        )
        for _ in range(n)
    ]


def _count_kernel_calls(monkeypatch):
    """Wrap both queue kernels as ``rt_model`` sees them; return the
    per-kernel call counts."""
    calls = {"serial": 0, "batch": 0}
    for name, key in (
        ("simulate_stap_queue", "serial"),
        ("simulate_stap_queue_batch", "batch"),
    ):
        kernel = getattr(rt_module, name)

        def counted(*args, _kernel=kernel, _key=key, **kwargs):
            calls[_key] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(rt_module, name, counted)
    return calls


def _bits(feedback):
    """Every float of one :class:`QueueFeedback` as its exact bits."""
    values = (
        *dataclasses.astuple(feedback.summary),
        feedback.mean_wait,
        feedback.p95_wait,
        feedback.boost_fraction,
    )
    return tuple(float(v).hex() for v in values)


def _record_kernel_conditions(monkeypatch):
    """Wrap both queue kernels as ``rt_model`` sees them; return, per
    kernel call, the ``(config, arrival row bytes)`` of each condition."""
    seen = {"serial": [], "batch": []}
    serial_kernel = rt_module.simulate_stap_queue
    batch_kernel = rt_module.simulate_stap_queue_batch

    def serial(arrivals, demands, cfg):
        seen["serial"].append([(cfg, arrivals.tobytes())])
        return serial_kernel(arrivals, demands, cfg)

    def batch(arrivals, demands, configs):
        seen["batch"].append(
            [(cfg, row.tobytes()) for cfg, row in zip(configs, arrivals)]
        )
        return batch_kernel(arrivals, demands, configs)

    monkeypatch.setattr(rt_module, "simulate_stap_queue", serial)
    monkeypatch.setattr(rt_module, "simulate_stap_queue_batch", batch)
    return seen


_condition_values = st.fixed_dictionaries(
    dict(
        utilization=st.floats(0.3, 0.95),
        timeout=st.sampled_from([0.0, -0.0, 0.25, 1.5, np.inf]),
        gross_increase=st.floats(1.0, 3.0),
        effective_allocation=st.floats(0.2, 1.5),
        service_cv=st.sampled_from([0.0, 0.35, 1.0]),
        mean_service_time=st.floats(0.7, 1.2),
    )
)


@st.composite
def _repeated_conditions(draw):
    """Up to ten distinct conditions, each repeated and all shuffled."""
    pool = draw(st.lists(_condition_values, min_size=1, max_size=10))
    picks = draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=24)
    )
    return [dict(pool[i]) for i in picks]


class TestSimulateDistinctOnce:
    """``simulate_many`` runs the kernel once per distinct condition and
    fans the results back out; every position still gets the bits a
    standalone run of its condition gives."""

    MODEL = ResponseTimeModel(n_queries=120, rng=5)

    @settings(max_examples=40, deadline=None)
    @given(conds=_repeated_conditions())
    def test_repeats_match_oracle_bit_for_bit(self, conds):
        got = self.MODEL.simulate_many(conds)
        assert len(got) == len(conds)
        for cond, feedback in zip(conds, got):
            assert _bits(feedback) == _bits(simulate_oracle(self.MODEL, **cond))

    def test_signed_zero_timeouts_stay_apart(self, monkeypatch):
        conds = _sample_conditions(2)
        conds[0]["timeout"], conds[1] = 0.0, dict(conds[0], timeout=-0.0)
        seen = _record_kernel_conditions(monkeypatch)
        self.MODEL.simulate_many(conds + conds)
        signs = [np.copysign(1, call[0][0].timeout) for call in seen["serial"]]
        assert signs == [1, -1]

    @pytest.mark.parametrize(
        "n_distinct,kernel",
        [(THRESHOLD - 1, "serial"), (THRESHOLD, "batch")],
        ids=["serial", "batch"],
    )
    def test_each_kernel_sees_each_distinct_condition_once(
        self, monkeypatch, n_distinct, kernel
    ):
        distinct = _sample_conditions(n_distinct)
        # Every condition three times, interleaved and reversed.
        conds = distinct + distinct[::-1] + distinct[1:] + distinct[:1]
        seen = _record_kernel_conditions(monkeypatch)
        self.MODEL.simulate_many(distinct)
        expected = {name: list(calls) for name, calls in seen.items()}
        for calls in seen.values():
            calls.clear()
        got = self.MODEL.simulate_many(conds)
        other = "batch" if kernel == "serial" else "serial"
        assert seen[other] == expected[other] == []
        # The kernel inputs are exactly those of the distinct list:
        # each distinct condition once, in order of first appearance.
        assert seen == expected
        # Repeats share the one frozen result of their condition.
        assert len({id(f) for f in got}) == n_distinct
        assert got == [simulate_oracle(self.MODEL, **c) for c in conds]

    def test_duplicate_counter(self):
        conds = _sample_conditions(9)
        conds = conds + conds[:4] + [dict(conds[2])]
        telemetry.configure()
        try:
            self.MODEL.simulate_many(conds)
            self.MODEL.simulate_many(conds[:3])
            reg = telemetry.get_registry()
            duplicates = reg.counter("rt_model.duplicate_conditions")
            kernel_conditions = reg.counter("queue.runs") + reg.counter(
                "queue.batch_conditions"
            )
        finally:
            telemetry.disable()
        assert duplicates == 5
        # Kernel conditions plus duplicates account for every input.
        assert kernel_conditions == 9 + 3
        assert kernel_conditions + duplicates == len(conds) + 3


class TestSimulateMany:
    def test_bit_identical_to_serial(self):
        # 500 queries are two segments, so C = half = ceil(THRESHOLD / 2)
        # and half - 1 straddle the kernel switch.
        model = ResponseTimeModel(n_queries=500, rng=7)
        half = -(-THRESHOLD // 2)
        for n in (1, half - 1, half, THRESHOLD - 1, THRESHOLD, THRESHOLD + 3):
            conds = _sample_conditions(n)
            oracle = [simulate_oracle(model, **c) for c in conds]
            assert model.simulate_many(conds) == oracle, n
            assert [model.simulate(**c) for c in conds] == oracle, n

    @pytest.mark.parametrize("n", [5, 12])
    def test_mixed_service_cv(self, n):
        # Conditions share demand rows by service CV; zero CV (constant
        # demand) sits next to repeated and distinct positive CVs.
        model = ResponseTimeModel(n_queries=400, rng=11)
        conds = _sample_conditions(n)
        for cond, cv in zip(conds, itertools.cycle([0.0, 0.35, 0.8, 0.35, 0.0, 1.3])):
            cond["service_cv"] = cv
        assert model.simulate_many(conds) == [
            simulate_oracle(model, **c) for c in conds
        ]

    def test_empty(self):
        assert ResponseTimeModel(rng=0).simulate_many([]) == []

    def test_auto_dispatch_thresholds(self, monkeypatch):
        # At one segment per condition, lanes are distinct conditions.
        model = ResponseTimeModel(n_queries=200, rng=1)
        calls = _count_kernel_calls(monkeypatch)
        below = THRESHOLD - 1
        model.simulate_many(_sample_conditions(below))
        assert calls == {"serial": below, "batch": 0}
        model.simulate_many(_sample_conditions(THRESHOLD))
        assert calls == {"serial": below, "batch": 1}
        model.simulate(**_sample_conditions(1)[0])
        assert calls == {"serial": below + 1, "batch": 1}
        # THRESHOLD conditions, one fewer distinct: still the serial kernel.
        conds = _sample_conditions(below)
        conds.insert(3, dict(conds[5]))
        got = model.simulate_many(conds)
        assert calls == {"serial": 2 * below + 1, "batch": 1}
        assert got[3] is got[6]

    def test_auto_dispatch_counts_segments(self, monkeypatch):
        # Long runs are cut into segments of SEGMENT_QUERIES queries, and
        # the kernel is picked by lanes: distinct conditions x segments.
        calls = _count_kernel_calls(monkeypatch)
        half = -(-THRESHOLD // 2)
        model = ResponseTimeModel(n_queries=ggk.SEGMENT_QUERIES * half, rng=3)
        one, two = _sample_conditions(2)
        # One condition of `half` segments (< THRESHOLD lanes): serial.
        assert model.simulate_many([one]) == [simulate_oracle(model, **one)]
        assert calls == {"serial": 1, "batch": 0}
        # Two conditions, 2 * half >= THRESHOLD lanes: the batched kernel.
        got = model.simulate_many([one, two])
        assert calls == {"serial": 1, "batch": 1}
        assert got == [simulate_oracle(model, **c) for c in (one, two)]
        # One condition cut into THRESHOLD segments: the batched kernel.
        model = ResponseTimeModel(n_queries=ggk.SEGMENT_QUERIES * THRESHOLD, rng=3)
        assert model.simulate_many([one]) == [simulate_oracle(model, **one)]
        assert calls == {"serial": 1, "batch": 2}

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("utilization", 1.5),
            ("effective_allocation", 0.0),
            ("mean_service_time", -1.0),
        ],
    )
    def test_validation_matches_simulate(self, field, bad):
        model = ResponseTimeModel(n_queries=200, rng=2)
        conds = _sample_conditions(9)
        conds[3][field] = bad
        with pytest.raises(ValueError):
            model.simulate_many(conds)
        with pytest.raises(ValueError):
            model.simulate(**conds[3])


class TestConditionBoundary:
    """Inputs that once flowed through as NaN or were silently ignored
    must fail at ``simulate_many`` on both sides of the kernel switch."""

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("effective_allocation", np.nan),
            ("effective_allocation", np.inf),
            ("gross_increase", np.nan),
            ("gross_increase", np.inf),
            ("service_cv", np.nan),
            ("mean_service_time", np.inf),
            ("timeout", np.nan),
        ],
    )
    def test_non_finite_rejected(self, field, bad):
        model = ResponseTimeModel(n_queries=200, rng=3)
        for n in (1, THRESHOLD - 1, THRESHOLD):
            conds = _sample_conditions(n)
            conds[-1][field] = bad
            with pytest.raises(ValueError, match=field):
                model.simulate_many(conds)
        with pytest.raises(ValueError, match=field):
            model.simulate(**conds[-1])

    @pytest.mark.parametrize(
        "field,bad",
        [
            # Once clamped to boost_speedup=0.1: at utilization 0.6 and
            # timeout 0.5 that gave a mean response time of ~4514.
            ("gross_increase", -3.0),
            ("gross_increase", 0.0),
            # Once treated as deterministic service.
            ("service_cv", -0.2),
        ],
    )
    def test_out_of_range_rejected(self, field, bad):
        model = ResponseTimeModel(n_queries=200, rng=3)
        for n in (1, THRESHOLD - 1, THRESHOLD):
            conds = _sample_conditions(n)
            conds[-1].update(utilization=0.6, timeout=0.5, **{field: bad})
            with pytest.raises(ValueError, match=field):
                model.simulate_many(conds)

    @pytest.mark.parametrize(
        "field,bad",
        [
            # Once passed the constructor (nan < 1 is False) and then
            # failed with "arrival_times must be finite".
            ("n_servers", np.nan),
            # Once failed in the serial kernel but ran in the batched one.
            ("n_servers", 2.0),
            # Once ran in the serial kernel but failed in the batched one.
            ("n_servers", True),
            # Once failed inside NumPy.
            ("n_queries", 100.5),
            ("n_queries", True),
        ],
    )
    def test_non_integer_counts_rejected(self, field, bad):
        with pytest.raises(TypeError, match=field):
            ResponseTimeModel(**{field: bad}, rng=3)

    @pytest.mark.parametrize("field,bad", [("n_servers", 0), ("n_queries", 9)])
    def test_small_counts_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            ResponseTimeModel(**{field: bad}, rng=3)

    def test_warmup_fraction_is_not_an_option(self):
        """Every simulation drops the module's one warmup fraction."""
        with pytest.raises(TypeError, match="warmup_fraction"):
            ResponseTimeModel(n_queries=200, warmup_fraction=0.1, rng=3)

    def test_unknown_key_rejected(self):
        model = ResponseTimeModel(n_queries=200, rng=4)
        for n in (1, THRESHOLD - 1, THRESHOLD):
            conds = _sample_conditions(n)
            conds[0]["service_CV"] = conds[0].pop("service_cv")
            with pytest.raises(TypeError, match="service_CV"):
                model.simulate_many(conds)

    def test_missing_key_rejected(self):
        model = ResponseTimeModel(n_queries=200, rng=4)
        for n in (1, THRESHOLD - 1, THRESHOLD):
            conds = _sample_conditions(n)
            del conds[0]["gross_increase"]
            with pytest.raises(TypeError, match="gross_increase"):
                model.simulate_many(conds)


class TestPredictConditions:
    def _conditions(self):
        # Enough 2-service conditions with distinct timeouts that one
        # lockstep round simulates at least THRESHOLD distinct queues.
        timeouts = [(0.0, 1.0), (0.5, 0.5), (np.inf, 0.0), (2.0, np.inf)]
        timeouts += [
            (0.25 + 0.1 * i, 1.25 + 0.1 * i)
            for i in range(-(-THRESHOLD // 2) - len(timeouts))
        ]
        return [
            RuntimeCondition(workloads=PAIR, utilizations=UTILS, timeouts=t)
            for t in timeouts
        ]

    def _assert_same(self, a, b):
        assert a.summaries == b.summaries
        assert np.array_equal(a.effective_allocations, b.effective_allocations)
        assert np.array_equal(a.boost_fractions, b.boost_fractions)
        assert np.array_equal(a.X_flat, b.X_flat)
        assert np.array_equal(a.traces, b.traces)

    def test_lockstep_matches_per_condition(self, fitted_fast, monkeypatch):
        # The lockstep simulates every service of every condition per
        # round (batched kernel), each single condition C = 2 (serial).
        conds = self._conditions()
        calls = _count_kernel_calls(monkeypatch)
        singles = [fitted_fast.predict_condition(c) for c in conds]
        assert calls["batch"] == 0
        serial_calls = calls["serial"]
        batched = fitted_fast.predict_conditions(conds)
        assert calls == {"serial": serial_calls, "batch": fitted_fast.n_iterations}
        for a, b in zip(singles, batched):
            self._assert_same(a, b)


class TestExploreBatched:
    def test_batch_matches_serial_and_policy_vector(self, fitted_fast):
        combos, rt = explore_timeouts(fitted_fast, PAIR, UTILS, GRID)
        assert combos == list(itertools.product(GRID, repeat=len(PAIR)))
        loop = np.array(
            [
                [
                    s.p95
                    for s in fitted_fast.predict_condition(
                        RuntimeCondition(PAIR, UTILS, combo)
                    ).summaries
                ]
                for combo in combos
            ]
        )
        assert np.array_equal(rt, loop)
        # The headline acceptance guarantee: the recommended timeout
        # vector is the SLO match over the per-combination predictions.
        decision = model_driven_policy(fitted_fast, PAIR, UTILS, GRID)
        assert decision.timeouts == combos[slo_matching(loop)]

    def test_one_lockstep_call(self, fitted_fast, monkeypatch):
        # The whole grid is scored by a single predict_conditions call,
        # in combination order, and the matrix is unchanged by the spy.
        _, expected = explore_timeouts(fitted_fast, PAIR, UTILS, GRID)
        calls = []
        real = fitted_fast.predict_conditions

        def spy(conditions):
            calls.append([c.timeouts for c in conditions])
            return real(conditions)

        monkeypatch.setattr(fitted_fast, "predict_conditions", spy)
        combos, rt = explore_timeouts(fitted_fast, PAIR, UTILS, GRID)
        assert calls == [combos]
        assert np.array_equal(rt, expected)

    @pytest.mark.parametrize("search", [explore_timeouts, model_driven_policy])
    def test_n_jobs_not_accepted(self, fitted_fast, search):
        # The search runs in-process only; there is no worker count.
        with pytest.raises(TypeError, match="n_jobs"):
            search(fitted_fast, PAIR, UTILS, GRID, n_jobs=2)


class TestEaPredictOracle:
    """The deep forest's EA predict (distinct MGS windows once, one pack
    per cascade level) against its all-positions, forest-by-forest
    oracle, on the 5x5 timeout grid a pair plan scores."""

    def test_plan_grid_matches_oracle_path(self, fitted_fast, monkeypatch):
        conds = [
            RuntimeCondition(workloads=PAIR, utilizations=UTILS, timeouts=t)
            for t in itertools.product(DEFAULT_TIMEOUT_GRID, repeat=2)
        ]
        reg = telemetry.configure()
        try:
            got = fitted_fast.predict_conditions(conds)
        finally:
            telemetry.disable()
        assert 0 < reg.counter("mgs.window_rows_predicted") < reg.counter(
            "mgs.window_rows"
        )
        monkeypatch.setattr(MultiGrainScanner, "transform", mgs_transform_oracle)
        monkeypatch.setattr(CascadeForest, "predict", cascade_predict_oracle)
        want = fitted_fast.predict_conditions(conds)
        for a, b in zip(got, want, strict=True):
            assert a.summaries == b.summaries
            for field in ("effective_allocations", "boost_fractions", "X_flat", "traces"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
