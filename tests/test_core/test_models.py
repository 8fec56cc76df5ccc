"""Tests for the EA model, RT model, pipeline and policy search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis import median_ape
from repro.core import EAModel, ResponseTimeModel, RuntimeCondition, StacModel
from repro.core.ea import ideal_effective_allocation
from repro.core.policy_search import (
    DEFAULT_TIMEOUT_GRID,
    explore_timeouts,
    model_driven_policy,
    slo_matching,
)
from repro.workloads import get_workload
from repro.workloads.base import MB

FAST_DF = dict(
    windows=[(5, 5)],
    mgs_estimators=5,
    mgs_max_instances=2000,
    n_levels=1,
    forests_per_level=2,
    n_estimators=10,
)


@pytest.fixture(scope="module")
def fitted(small_dataset):
    train, test = small_dataset.split_conditions(0.5, rng=0)
    model = StacModel(rng=0, **FAST_DF).fit(train)
    return model, train, test


class TestIdealEA:
    def test_range(self):
        spec = get_workload("redis")
        ea = ideal_effective_allocation(spec, 2 * MB, 2 * MB, 2.0)
        assert 0.5 < ea <= 1.0  # boosted speedup in (1, gross]

    def test_matches_mrc_speedup(self):
        spec = get_workload("redis")
        ea = ideal_effective_allocation(spec, 2 * MB, 2 * MB, 2.0)
        assert ea == pytest.approx(spec.speedup(4 * MB) / 2.0)

    def test_compute_bound_floor(self):
        """A capacity-insensitive workload gains nothing: EA = 1/gross."""
        from dataclasses import replace

        spec = replace(get_workload("redis"), memory_boundedness=0.0)
        ea = ideal_effective_allocation(spec, 2 * MB, 2 * MB, 2.0)
        assert ea == pytest.approx(0.5)


class TestEAModel:
    @pytest.mark.parametrize("learner", ["random_forest", "tree", "linear"])
    def test_flat_learners_fit_and_predict(self, small_dataset, learner):
        train, test = small_dataset.split_conditions(0.5, rng=1)
        m = EAModel(learner=learner, rng=0).fit(train)
        pred = m.predict_dataset(test)
        assert pred.shape == (len(test),)
        assert np.all((pred >= 0.05) & (pred <= 2.0))

    def test_deep_forest_ea_accuracy(self, small_dataset):
        train, test = small_dataset.split_conditions(0.5, rng=2)
        df = EAModel(learner="deep_forest", rng=0, **FAST_DF).fit(train)
        err_df = median_ape(df.predict_dataset(test), test.y_ea)
        # Even the fast test configuration should track EA closely; the
        # full model-vs-baseline comparison lives in the Fig. 6 bench.
        assert err_df < 0.10

    def test_concept_features_available(self, small_dataset):
        train, _ = small_dataset.split_conditions(0.5, rng=3)
        m = EAModel(learner="cascade", rng=0, n_levels=2, forests_per_level=2,
                    n_estimators=8).fit(train)
        feats = m.concept_features(train.X_flat, train.traces)
        assert feats.shape == (len(train), 4)

    def test_concept_features_unsupported_learner(self, small_dataset):
        train, _ = small_dataset.split_conditions(0.5, rng=3)
        m = EAModel(learner="linear", rng=0).fit(train)
        with pytest.raises(ValueError):
            m.concept_features(train.X_flat, train.traces)

    def test_unknown_learner(self):
        with pytest.raises(ValueError):
            EAModel(learner="svm")

    def test_unfitted_raises(self, small_dataset):
        with pytest.raises(RuntimeError):
            EAModel(learner="linear").predict_dataset(small_dataset)

    def test_empty_dataset_rejected(self):
        from repro.core import ProfileDataset

        with pytest.raises(ValueError):
            EAModel(learner="linear").fit(ProfileDataset())


class TestResponseTimeModel:
    def test_deterministic(self):
        m = ResponseTimeModel(rng=0)
        a = m.simulate(0.9, 1.0, 2.0, 0.8).summary
        b = m.simulate(0.9, 1.0, 2.0, 0.8).summary
        assert a == b

    def test_higher_ea_lower_response_time(self):
        m = ResponseTimeModel(rng=0)
        lo = m.simulate(0.9, 0.5, 2.0, 0.55).summary
        hi = m.simulate(0.9, 0.5, 2.0, 0.95).summary
        assert hi.mean < lo.mean

    def test_feedback_fields(self):
        m = ResponseTimeModel(rng=0)
        fb = m.simulate(0.9, 1.0, 2.0, 0.9)
        assert fb.mean_wait >= 0
        assert 0 <= fb.boost_fraction <= 1

    def test_validation(self):
        m = ResponseTimeModel(rng=0)
        with pytest.raises(ValueError):
            m.simulate(1.2, 1.0, 2.0, 0.9)
        with pytest.raises(ValueError):
            m.simulate(0.5, 1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            m.simulate(0.5, 1.0, 2.0, 0.9, mean_service_time=0.0)
        with pytest.raises(ValueError):
            ResponseTimeModel(n_servers=0)

    def test_faster_default_service_lowers_response_time(self):
        """A default allocation above baseline (mean service < 1) gives
        lower normalized response times at the same utilization."""
        m = ResponseTimeModel(rng=0)
        slow = m.simulate(0.8, np.inf, 2.0, 0.5).summary
        fast = m.simulate(0.8, np.inf, 2.0, 0.5, mean_service_time=0.8).summary
        assert fast.mean < slow.mean

    def test_timeout_reference_is_baseline_clock(self):
        """Eq. 4's warning is relative to the baseline service time, so
        the same timeout triggers *more* often when the default service
        is faster (queries finish sooner relative to the warning)."""
        m = ResponseTimeModel(rng=0)
        base = m.simulate(0.9, 1.0, 2.0, 0.9)
        fast = m.simulate(0.9, 1.0, 2.0, 0.9, mean_service_time=0.8)
        assert fast.boost_fraction < base.boost_fraction


class TestStacModel:
    def test_predict_rows_accuracy(self, fitted):
        model, _, test = fitted
        pred = model.predict_rows(test)
        # Even the fast configuration should be well under 50% median APE.
        assert median_ape(pred["rt_mean"], test.y_rt_mean) < 0.5
        assert pred["ea"].shape == (len(test),)

    def test_predict_condition_structure(self, fitted):
        model, _, _ = fitted
        cond = RuntimeCondition(("redis", "social"), (0.9, 0.9), (1.0, 1.0))
        out = model.predict_condition(cond)
        assert len(out.summaries) == 2
        assert out.effective_allocations.shape == (2,)
        assert all(s.mean > 0 for s in out.summaries)

    def test_predict_condition_sees_timeout_effect(self, fitted):
        model, _, _ = fitted
        tight = model.predict_condition(
            RuntimeCondition(("redis", "social"), (0.9, 0.9), (0.2, 0.2))
        )
        never = model.predict_condition(
            RuntimeCondition(("redis", "social"), (0.9, 0.9), (6.0, 6.0))
        )
        # STA with a tight timeout should predict lower response time.
        assert tight.summaries[0].p95 < never.summaries[0].p95

    def test_empty_rows_rejected(self, fitted):
        from repro.core import ProfileDataset

        model, _, _ = fitted
        with pytest.raises(ValueError):
            model.predict_rows(ProfileDataset())

    def test_unfitted_model_rejected(self, small_dataset):
        model = StacModel(rng=0)
        condition = RuntimeCondition(("redis", "social"), (0.5, 0.5), (1.0, 1.0))
        with pytest.raises(RuntimeError, match="not fitted"):
            model.predict_rows(small_dataset)
        with pytest.raises(RuntimeError, match="not fitted"):
            model.predict_condition(condition)

    def test_bad_iterations(self):
        with pytest.raises(ValueError):
            StacModel(n_iterations=0)

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_rounds_below_one_rejected_at_predict(self, fitted, monkeypatch, rounds):
        """``n_iterations`` may be set on a built model; fewer than one
        round fails loudly instead of running no round."""
        model, _, _ = fitted
        monkeypatch.setattr(model, "n_iterations", rounds)
        condition = RuntimeCondition(("redis", "social"), (0.5, 0.5), (1.0, 1.0))
        with pytest.raises(ValueError, match="n_iterations"):
            model.predict_condition(condition)
        with pytest.raises(ValueError, match="n_iterations"):
            model.predict_conditions([condition])

    def test_single_iteration_rejected(self):
        """One round returns summaries simulated at the first-principles
        EA, so the Stage 2 model would be silently ignored."""
        with pytest.raises(ValueError, match="n_iterations"):
            StacModel(n_iterations=1)


class TestSloMatching:
    def test_picks_joint_optimum(self):
        rt = np.array([[1.0, 5.0], [5.0, 1.0], [1.04, 1.04]])
        assert slo_matching(rt) == 2

    def test_relaxes_when_no_intersection(self):
        rt = np.array([[1.0, 2.0], [2.0, 1.0]])
        idx = slo_matching(rt)
        assert idx in (0, 1)

    def test_single_service(self):
        rt = np.array([[3.0], [1.0], [2.0]])
        assert slo_matching(rt) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            slo_matching(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            slo_matching(np.array([[1.0, -1.0]]))


class TestPolicySearch:
    def test_explore_shapes(self, fitted):
        model, _, _ = fitted
        combos, rt = explore_timeouts(
            model, ("redis", "social"), (0.9, 0.9), timeout_grid=(0.5, 2.0)
        )
        assert len(combos) == 4
        assert rt.shape == (4, 2)

    def test_search_ranks_by_p95(self, fitted):
        """The rt matrix holds each combination's predicted p95; the
        statistic is not an option."""
        model, _, _ = fitted
        workloads, utils = ("redis", "social"), (0.9, 0.9)
        combos, rt = explore_timeouts(model, workloads, utils, timeout_grid=(0.5,))
        pred = model.predict_condition(RuntimeCondition(workloads, utils, combos[0]))
        assert rt.tolist() == [[s.p95 for s in pred.summaries]]
        with pytest.raises(TypeError, match="statistic"):
            explore_timeouts(model, workloads, utils, statistic="p95")

    def test_model_driven_policy_from_grid(self, fitted):
        model, _, _ = fitted
        pol = model_driven_policy(
            model, ("redis", "social"), (0.9, 0.9), timeout_grid=(0.5, 2.0)
        )
        assert pol.name == "model-driven"
        assert all(t in (0.5, 2.0) for t in pol.timeouts)

    def test_default_grid_is_paperlike(self):
        assert len(DEFAULT_TIMEOUT_GRID) == 5


class TestSloMatchingEdgeCases:
    def test_single_service_relaxation(self):
        """One service: the per-service optimum always wins."""
        rt = np.array([[2.0], [1.0], [1.9]])
        assert slo_matching(rt) == 1

    def test_empty_intersection_relaxes_to_compromise(self):
        """No combination is near-best for every service; the balanced
        compromise wins over either service's lopsided optimum."""
        rt = np.array([[1.0, 3.0], [3.0, 1.0], [1.5, 1.5]])
        assert slo_matching(rt) == 2

    def test_tie_break_by_minimax_regret(self):
        """All combinations are near-best; the one with the smallest
        worst-case relative regret wins."""
        rt = np.array([[1.0, 1.04], [1.04, 1.0], [1.02, 1.02]])
        assert slo_matching(rt) == 2

    def test_identical_rows_pick_first(self):
        rt = np.ones((4, 3))
        assert slo_matching(rt) == 0

    def test_wide_matrix_many_services(self):
        rng = np.random.default_rng(0)
        rt = rng.uniform(1.0, 2.0, size=(25, 6))
        idx = slo_matching(rt)
        assert 0 <= idx < 25
        # The pick never has worse minimax regret than the global one.
        regret = (rt / rt.min(axis=0)).max(axis=1)
        assert regret[idx] <= regret.min() * (1 + 1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cell_rejected(self, bad):
        """A NaN cell used to win: every comparison with NaN is False, so
        the positivity check passed and combo 0 (the NaN one) was picked."""
        rt = np.array([[1.0, 2.0], [1.5, 1.5], [2.0, 1.0]])
        rt[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            slo_matching(rt)

    def test_infinite_tolerance_admits_every_combination(self):
        """Every row is a candidate, so the minimax-regret row wins."""
        rt = np.array([[1.0, 2.0], [2.0, 1.0], [1.5, 1.5]])
        assert slo_matching(rt) == 2

    @settings(max_examples=60, deadline=None)
    @given(
        rt=arrays(
            float,
            st.tuples(st.integers(1, 12), st.integers(1, 5)),
            elements=st.floats(0.1, 10.0),
        ),
        seed=st.integers(0, 2**16),
    )
    def test_invariant_to_service_order(self, rt, seed):
        perm = np.random.default_rng(seed).permutation(rt.shape[1])
        assert slo_matching(rt[:, perm]) == slo_matching(rt)

    @settings(max_examples=60, deadline=None)
    @given(
        rt=arrays(
            float,
            st.tuples(st.integers(1, 12), st.integers(1, 5)),
            elements=st.floats(0.1, 10.0),
        )
    )
    def test_picks_first_minimax_regret_row(self, rt):
        """The pick is the first row whose worst regret is smallest."""
        best = rt.min(axis=0)
        regret = [max(row / best) for row in rt]
        assert slo_matching(rt) == regret.index(min(regret))


class TestParallelPolicySearch:
    def test_empty_grid(self, fitted):
        model, _, _ = fitted
        with pytest.raises(ValueError):
            explore_timeouts(model, ("redis",), (0.9,), timeout_grid=())


def test_cnn_ea_model_predicts_in_range(small_dataset):
    train, test = small_dataset.split_conditions(0.5, rng=4)
    m = EAModel(learner="cnn", rng=0).fit(train)
    pred = m.predict_dataset(test)
    assert pred.shape == (len(test),)
    assert np.all((pred >= 0.05) & (pred <= 2.0))


def test_concept_features_need_a_fit(small_dataset):
    with pytest.raises(RuntimeError, match="not fitted"):
        EAModel(learner="cascade", rng=0).concept_features(
            small_dataset.X_flat, None
        )
