"""Tests for the online management layer."""

import numpy as np
import pytest

from repro import Profiler, StacModel, uniform_conditions
from repro.baselines import RuntimeEvaluator
from repro.core.profiler import ProfilerSettings
from repro.manager import (
    AdaptiveTimeoutController,
    EpochResult,
    LoadScenario,
    OnlineManager,
)

PAIR = ("redis", "knn")
FAST = dict(
    windows=[(5, 5)],
    mgs_estimators=5,
    mgs_max_instances=2000,
    n_levels=1,
    forests_per_level=2,
    n_estimators=10,
)


@pytest.fixture(scope="module")
def profile():
    conditions = uniform_conditions(PAIR, n=6, rng=0)
    profiler = Profiler(
        settings=ProfilerSettings(n_queries=300, n_windows=3, trace_ticks=12),
        rng=0,
    )
    return profiler.profile(conditions)


@pytest.fixture(scope="module")
def controller(profile):
    model = StacModel(rng=0, **FAST).fit(profile)
    return AdaptiveTimeoutController(
        model=model, workloads=PAIR, timeout_grid=(0.0, 1.0, 4.0)
    )


@pytest.fixture(scope="module")
def manager_for(profile, controller):
    """An online manager whose testbed truth runs ``profile``'s layout at
    300 queries per epoch, on epoch seeds drawn from ``rng``."""

    def make(rng):
        evaluator = RuntimeEvaluator(profile, PAIR, n_queries=300, rng=rng)
        return OnlineManager(controller, evaluator)

    return make


class TestLoadScenario:
    def test_ramp(self):
        s = LoadScenario.ramp(2, 0.4, 0.9, 6)
        assert s.n_epochs == 6 and s.n_services == 2
        assert s.epochs[0][0] == pytest.approx(0.4)
        assert s.epochs[-1][0] == pytest.approx(0.9)

    def test_diurnal_peaks_mid(self):
        s = LoadScenario.diurnal(2, 0.3, 0.9, 7)
        mids = [e[0] for e in s.epochs]
        assert max(mids) == mids[3]
        assert mids[0] == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadScenario(())
        with pytest.raises(ValueError):
            LoadScenario(((0.5, 0.5), (0.6,)))
        with pytest.raises(ValueError):
            LoadScenario(((1.5, 0.5),))
        with pytest.raises(ValueError):
            LoadScenario.ramp(2, 0.3, 0.9, 0)


class TestController:
    def test_recommend_shape(self, controller):
        plan = controller.recommend((0.9, 0.9))
        assert plan.name == "adaptive"
        assert len(plan.timeouts) == 2
        assert all(t in (0.0, 1.0, 4.0) for t in plan.timeouts)

    def test_plan_caching(self, controller):
        before = controller.plans_computed
        a = controller.recommend((0.71, 0.71))
        b = controller.recommend((0.72, 0.72))  # same 0.05 quantum bucket
        assert a is b
        assert controller.plans_computed == before + 1

    def test_distinct_loads_distinct_plans(self, controller):
        controller.recommend((0.3, 0.3))
        n = controller.plans_computed
        controller.recommend((0.55, 0.55))  # different quantum bucket
        assert controller.plans_computed == n + 1

    def test_validation(self, controller):
        with pytest.raises(ValueError):
            controller.recommend((0.9,))
        with pytest.raises(ValueError):
            AdaptiveTimeoutController(
                model=controller.model, workloads=PAIR, utilization_quantum=0.0
            )

    def test_bad_config_fails_at_construction(self, controller):
        """An empty grid used to construct fine and only raise at the
        first ``recommend``, inside an online-manager epoch."""
        with pytest.raises(ValueError):
            AdaptiveTimeoutController(
                model=controller.model, workloads=PAIR, timeout_grid=()
            )

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_utilization_rejected(self, controller, bad):
        """``inf`` used to raise ``OverflowError`` from ``math.floor`` and
        ``nan`` an unrelated ``ValueError``."""
        with pytest.raises(ValueError, match="utilizations must be finite"):
            controller.recommend((bad, 0.9))

    def test_statistic_not_accepted(self, controller):
        """Plans always rank combinations by predicted p95."""
        with pytest.raises(TypeError, match="statistic"):
            AdaptiveTimeoutController(
                model=controller.model, workloads=PAIR, statistic="p95"
            )

    def test_n_jobs_not_accepted(self, controller):
        """Plans are searched in-process; the controller has no worker
        count."""
        with pytest.raises(TypeError, match="n_jobs"):
            AdaptiveTimeoutController(
                model=controller.model, workloads=PAIR, n_jobs=2
            )


class TestOnlineManager:
    def test_epoch_results_structure(self, manager_for):
        manager = manager_for(1)
        scenario = LoadScenario.ramp(2, 0.5, 0.9, 3)
        results = manager.run(scenario, adapt=True)
        assert len(results) == 3
        assert all(isinstance(r, EpochResult) for r in results)
        assert results[0].utilizations == (0.5, 0.5)
        assert results[0].p95.shape == (2,)

    def test_static_mode_keeps_first_plan(self, manager_for):
        manager = manager_for(2)
        scenario = LoadScenario.ramp(2, 0.4, 0.9, 3)
        results = manager.run(scenario, adapt=False)
        assert len({r.timeouts for r in results}) == 1

    def test_width_mismatch(self, manager_for):
        manager = manager_for(3)
        with pytest.raises(ValueError):
            manager.run(LoadScenario.ramp(3, 0.4, 0.8, 2))

    def test_evaluator_must_run_the_controllers_workloads(self, profile, controller):
        evaluator = RuntimeEvaluator(profile, ("knn", "redis"), n_queries=300)
        with pytest.raises(ValueError, match="controller manages"):
            OnlineManager(controller, evaluator)

    @pytest.mark.parametrize(
        "option", ["machine", "n_queries", "private_mb", "shared_mb", "rng"]
    )
    def test_layout_and_truth_options_are_the_evaluators(
        self, profile, controller, option
    ):
        """The manager takes its testbed layout, query count and seed
        from its evaluator only."""
        evaluator = RuntimeEvaluator(profile, PAIR, n_queries=300)
        with pytest.raises(TypeError, match=option):
            OnlineManager(controller, evaluator, **{option: 1})


class TestCacheKeyQuantization:
    """Regression: ``np.round`` banker's rounding made bucket edges
    inconsistent (0.125 -> 0.10 but 0.175 -> 0.15 at quantum 0.05);
    keys now quantize half-up, so every midpoint rounds the same way.
    """

    def test_bucket_edges_round_half_up(self, controller):
        assert controller._key((0.125, 0.175)) == (0.15, 0.2)

    def test_all_midpoints_round_up(self, controller):
        q = controller.utilization_quantum
        for k in range(2, 18):
            mid = k * q + q / 2
            (key, _) = controller._key((mid, 0.5))
            assert key == pytest.approx(min((k + 1) * q, 0.95)), mid

    def test_interior_values_unchanged(self, controller):
        assert controller._key((0.71, 0.72)) == (0.7, 0.7)
        assert controller._key((0.30, 0.55)) == (0.3, 0.55)

    def test_keys_clipped_to_valid_utilization(self, controller):
        lo, hi = controller._key((0.01, 0.99))
        assert lo == pytest.approx(0.05)
        assert hi == pytest.approx(0.95)

    def test_equal_loads_share_one_plan_across_edge(self, controller):
        before = controller.plans_computed
        a = controller.recommend((0.125, 0.125))
        b = controller.recommend((0.13, 0.13))  # same half-up bucket
        assert a is b
        assert controller.plans_computed == before + 1


class TestGroundTruthSeeding:
    """Regression: ``run`` used to draw fresh epoch seeds from the live
    RNG, so back-to-back adapt=True / adapt=False runs on one manager
    simulated *different* ground truth and conflated policy effect with
    seed noise.  Seeds now derive from one fixed spawn per manager.
    """

    def test_repeated_runs_share_ground_truth(self, manager_for):
        manager = manager_for(7)
        scenario = LoadScenario.ramp(2, 0.5, 0.8, 2)
        r1 = manager.run(scenario, adapt=False)
        r2 = manager.run(scenario, adapt=False)
        for a, b in zip(r1, r2):
            assert np.array_equal(a.p95, b.p95)
            assert np.array_equal(a.mean, b.mean)

    def test_ab_runs_share_epoch_zero(self, manager_for):
        """Epoch 0 uses the same plan in both modes, so with shared
        ground truth its outcomes must match exactly."""
        manager = manager_for(8)
        scenario = LoadScenario.ramp(2, 0.5, 0.8, 2)
        adaptive = manager.run(scenario, adapt=True)
        static = manager.run(scenario, adapt=False)
        assert adaptive[0].timeouts == static[0].timeouts
        assert np.array_equal(adaptive[0].p95, static[0].p95)

    def test_distinct_managers_distinct_ground_truth(self, manager_for):
        scenario = LoadScenario.ramp(2, 0.5, 0.8, 2)
        r1 = manager_for(9).run(scenario)
        r2 = manager_for(10).run(scenario)
        assert not np.array_equal(r1[0].p95, r2[0].p95)


def test_diurnal_rejects_zero_epochs():
    with pytest.raises(ValueError, match="n_epochs"):
        LoadScenario.diurnal(2, 0.3, 0.9, 0)


def test_controller_needs_a_workload(controller):
    with pytest.raises(ValueError, match="at least one workload"):
        AdaptiveTimeoutController(model=controller.model, workloads=())
