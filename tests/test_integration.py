"""Cross-module integration tests: the full pipeline, edge conditions,
and determinism guarantees spanning subsystems."""

import numpy as np
import pytest

from repro import (
    Profiler,
    RuntimeCondition,
    StacModel,
    model_driven_policy,
    uniform_conditions,
)
from repro.baselines import RuntimeEvaluator, no_sharing_policy
from repro.core.profiler import ProfilerSettings

FAST = dict(
    windows=[(5, 5)],
    mgs_estimators=5,
    mgs_max_instances=2000,
    n_levels=1,
    forests_per_level=2,
    n_estimators=10,
)


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def pipeline(self):
        conditions = uniform_conditions(("redis", "knn"), n=6, rng=0)
        profiler = Profiler(
            settings=ProfilerSettings(n_queries=300, n_windows=3, trace_ticks=12),
            rng=0,
        )
        dataset = profiler.profile(conditions)
        model = StacModel(rng=0, **FAST).fit(dataset)
        return dataset, model

    def test_policy_beats_baseline_on_testbed(self, pipeline):
        dataset, model = pipeline
        policy = model_driven_policy(
            model, ("redis", "knn"), (0.9, 0.9), timeout_grid=(0.0, 1.0, 4.0)
        )
        evaluator = RuntimeEvaluator(
            dataset, ("redis", "knn"), utilization=0.9, n_queries=1200, rng=50
        )
        base = evaluator.p95(no_sharing_policy(2).timeouts)
        ours = evaluator.p95(policy.timeouts)
        # Joint improvement: nobody worse, someone clearly better.
        assert np.all(ours <= base * 1.05)
        assert np.any(ours < base * 0.9)

    def test_predictions_deterministic_end_to_end(self, pipeline):
        dataset, _ = pipeline
        cond = RuntimeCondition(("redis", "knn"), (0.8, 0.8), (1.0, 2.0))
        m1 = StacModel(rng=3, **FAST).fit(dataset)
        m2 = StacModel(rng=3, **FAST).fit(dataset)
        p1 = m1.predict_condition(cond)
        p2 = m2.predict_condition(cond)
        assert np.allclose(p1.effective_allocations, p2.effective_allocations)
        assert p1.summaries[0].p95 == p2.summaries[0].p95

    @pytest.mark.parametrize(
        "learner", ["deep_forest", "cascade", "random_forest", "tree", "linear"]
    )
    def test_every_learner_supports_condition_prediction(self, pipeline, learner):
        dataset, _ = pipeline
        kwargs = FAST if learner in ("deep_forest", "cascade") else {}
        model = StacModel(rng=0, learner=learner, **kwargs).fit(dataset)
        pred = model.predict_condition(
            RuntimeCondition(("redis", "knn"), (0.7, 0.7), (0.5, 3.0))
        )
        assert len(pred.summaries) == 2
        assert np.all(pred.effective_allocations > 0)


class TestEdgeConditions:
    def test_always_boost_condition(self):
        """timeout=0 on both: permanent short-term allocation."""
        profiler = Profiler(
            settings=ProfilerSettings(n_queries=200, n_windows=2, trace_ticks=8),
            rng=1,
        )
        ds = profiler.profile(
            [RuntimeCondition(("redis", "spstream"), (0.9, 0.9), (0.0, 0.0))]
        )
        assert len(ds) > 0
        # Near-permanent boosting measured in the dynamic features.
        boost = [r.x_dynamic[1] for r in ds.rows]
        assert min(boost) > 0.8

    def test_near_saturation(self):
        profiler = Profiler(
            settings=ProfilerSettings(n_queries=250, n_windows=2, trace_ticks=8),
            rng=2,
        )
        ds = profiler.profile(
            [RuntimeCondition(("jacobi", "bfs"), (0.94, 0.94), (1.0, 1.0))]
        )
        assert np.all(np.isfinite(ds.y_rt_mean))
        assert np.all(ds.y_rt_mean > 1.0)  # heavy queueing

    def test_single_service_profiling(self):
        profiler = Profiler(
            settings=ProfilerSettings(n_queries=200, n_windows=2, trace_ticks=8),
            rng=3,
        )
        ds = profiler.profile(
            [RuntimeCondition(("redis",), (0.8,), (1.0,))]
        )
        assert len(ds) > 0
        assert ds.traces.shape[1] == 29  # one service block only

    def test_asymmetric_utilizations(self):
        profiler = Profiler(
            settings=ProfilerSettings(n_queries=250, n_windows=2, trace_ticks=8),
            rng=5,
        )
        ds = profiler.profile(
            [RuntimeCondition(("redis", "social"), (0.3, 0.93), (0.5, 0.5))]
        )
        rows = {r.service_name: r for r in ds.rows}
        # The loaded service queues; the idle one does not.
        assert rows["social"].x_dynamic[0] > rows["redis"].x_dynamic[0]


class TestNumericalRobustness:
    def test_model_survives_constant_ea_training(self):
        """If every profiled EA is identical (degenerate but possible at
        huge timeouts), training and prediction must still work."""
        profiler = Profiler(
            settings=ProfilerSettings(n_queries=200, n_windows=2, trace_ticks=8),
            rng=6,
        )
        conds = [
            RuntimeCondition(("knn", "kmeans"), (0.4, 0.4), (6.0, 6.0)),
            RuntimeCondition(("knn", "kmeans"), (0.5, 0.5), (5.5, 5.8)),
            RuntimeCondition(("knn", "kmeans"), (0.3, 0.35), (5.0, 6.0)),
        ]
        ds = profiler.profile(conds)
        assert np.ptp(ds.y_ea) < 0.05  # nearly constant target
        model = StacModel(rng=0, **FAST).fit(ds)
        pred = model.predict_rows(ds)
        assert np.all(np.isfinite(pred["rt_mean"]))

    def test_trace_padding_with_slow_sampling(self):
        """0.2 Hz sampling on short windows produces heavy zero padding
        without breaking feature extraction."""
        profiler = Profiler(
            settings=ProfilerSettings(
                n_queries=200, n_windows=4, trace_ticks=20, sampling_hz=0.2
            ),
            rng=7,
        )
        ds = profiler.profile(
            [RuntimeCondition(("jacobi", "bfs"), (0.5, 0.5), (1.0, 1.0))]
        )
        # Most ticks are padding; the model must still fit.
        zero_frac = float((ds.traces == 0).mean())
        assert zero_frac > 0.3
        StacModel(rng=0, **FAST).fit(ds)
