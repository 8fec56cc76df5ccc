"""The ground-truth harness: every testbed run replays a profile's layout.

``run_condition`` is the one place a condition meets the testbed.  Stage
1 profiling, ``RuntimeEvaluator`` and ``OnlineManager`` epochs all go
through it, so the truth that judges a timeout vector runs on the
machine, reservations and warmup the model was profiled on.  The layout
here is not the default one: an e5-2650 with 3 MB private and 1.5 MB
shared reservations and a 20% warmup.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import telemetry
from repro._util import as_rng
from repro.baselines import (
    PolicyDecision,
    RuntimeEvaluator,
    dcat_policy,
    dynasprint_policy,
    static_best_policy,
)
from repro.core import ProfileDataset, RuntimeCondition
from repro.core.profiler import (
    Profiler,
    ProfilerSettings,
    collocation,
    run_condition,
)
from repro.manager import LoadScenario, OnlineManager
from repro.queueing.metrics import summarize_response_times
from repro.testbed import CollocationRuntime, get_machine

PAIR = ("redis", "knn")
MACHINE = get_machine("e5-2650")
SETTINGS = ProfilerSettings(
    n_queries=400, private_mb=3.0, shared_mb=1.5, warmup_fraction=0.2
)


@pytest.fixture(scope="module")
def profile():
    """A real Stage 1 profile of one condition on that layout."""
    settings = replace(SETTINGS, n_windows=2, trace_ticks=8)
    profiler = Profiler(MACHINE, settings, rng=1)
    return profiler.profile([RuntimeCondition(PAIR, (0.7, 0.7), (1.0, 1.0))])


def _direct(condition, n_queries, seed):
    """The testbed run, spelled out without the harness."""
    cfg = collocation(condition, MACHINE, 3.0, 1.5)
    run = CollocationRuntime(cfg, rng=seed).run(n_queries, warmup_fraction=0.2)
    return [summarize_response_times(s.response_times_norm) for s in run.services]


class TestRunCondition:
    def test_runs_the_settings_layout(self):
        condition = RuntimeCondition(PAIR, (0.8, 0.6), (0.5, 2.0))
        run = run_condition(condition, MACHINE, SETTINGS, seed=5)
        assert run.config.machine is MACHINE
        assert (run.config.private_mb, run.config.shared_mb) == (3.0, 1.5)
        got = [summarize_response_times(s.response_times_norm) for s in run.services]
        assert got == _direct(condition, 400, 5)

    def test_profiling_runs_through_it(self, monkeypatch):
        from repro.core import profiler as profiler_module

        calls = []
        real = profiler_module.run_condition

        def spy(condition, machine, settings, seed):
            calls.append((machine, settings))
            return real(condition, machine, settings, seed)

        monkeypatch.setattr(profiler_module, "run_condition", spy)
        settings = ProfilerSettings(
            n_queries=150, n_windows=2, trace_ticks=8, private_mb=3.0, shared_mb=1.5
        )
        Profiler(MACHINE, settings, rng=0).profile(
            [RuntimeCondition(PAIR, (0.8, 0.6), (0.5, 2.0))]
        )
        assert calls == [(MACHINE, settings)]


    def test_zero_warmup_keeps_every_query(self):
        """The replay of a whole run (warmup included) needs no option:
        the settings' warmup fraction set to zero keeps every query."""
        condition = RuntimeCondition(PAIR, (0.8, 0.6), (0.5, 2.0))
        whole = run_condition(
            condition, MACHINE, replace(SETTINGS, warmup_fraction=0.0), seed=5
        )
        cut = run_condition(condition, MACHINE, SETTINGS, seed=5)
        for full, kept in zip(whole.services, cut.services):
            assert full.n_queries == 400 and kept.n_queries == 320
            assert np.array_equal(full.arrival_times[80:], kept.arrival_times)


class TestEvaluatorReplaysTheProfile:
    def test_bit_identical_to_a_direct_run(self, profile):
        evaluator = RuntimeEvaluator(
            profile, PAIR, utilization=0.7, n_queries=300, rng=9
        )
        got = evaluator.evaluate((0.5, np.inf))
        want = _direct(RuntimeCondition(PAIR, (0.7, 0.7), (0.5, np.inf)), 300, 9)
        assert got == want

    def test_per_service_utilization_and_seed(self, profile):
        evaluator = RuntimeEvaluator(profile, PAIR, n_queries=300, rng=9)
        got = evaluator.evaluate((1.0, 0.0), (0.5, 0.8), seed=11)
        want = _direct(RuntimeCondition(PAIR, (0.5, 0.8), (1.0, 0.0)), 300, 11)
        assert got == want
        assert got != evaluator.evaluate((1.0, 0.0), (0.5, 0.8))

    def test_cache_keys_on_seed(self, profile):
        evaluator = RuntimeEvaluator(profile, PAIR, n_queries=200)
        a = evaluator.evaluate((1.0, 1.0), seed=1)
        assert evaluator.evaluate((1.0, 1.0), seed=1) is a
        assert evaluator.evaluate((1.0, 1.0), seed=2) is not a

    def test_only_profiling_emits_the_testbed_run_span(self, profile):
        """``stage1.testbed_run`` stays one span per profiled condition."""
        settings = ProfilerSettings(n_queries=150, n_windows=2, trace_ticks=8)
        conditions = [
            RuntimeCondition(PAIR, (0.8, 0.6), (0.5, 2.0)),
            RuntimeCondition(PAIR, (0.5, 0.5), (1.0, 1.0)),
        ]
        telemetry.configure()
        try:
            Profiler(settings=settings, rng=0).profile(conditions)
            RuntimeEvaluator(profile, PAIR, n_queries=200).evaluate((1.0, 1.0))
            names = [r.name for r in telemetry.get_span_log().records]
        finally:
            telemetry.disable()
        assert names.count("stage1.testbed_run") == 2


class _FixedPlan:
    """Controller stand-in that always recommends one vector."""

    workloads = PAIR

    def recommend(self, utilizations):
        return PolicyDecision("fixed", (0.5, 2.0))


def test_manager_epoch_is_an_evaluation_at_its_seed(profile):
    evaluator = RuntimeEvaluator(profile, PAIR, n_queries=300, rng=13)
    scenario = LoadScenario(((0.6, 0.7), (0.8, 0.5)))
    results = OnlineManager(_FixedPlan(), evaluator).run(scenario)
    root = int(as_rng(13).integers(0, 2**31))
    seeds = np.random.default_rng(root).integers(0, 2**31, size=2)
    fresh = RuntimeEvaluator(profile, PAIR, n_queries=300)
    for result, utils, seed in zip(results, scenario.epochs, seeds):
        assert list(result.summaries) == fresh.evaluate(
            (0.5, 2.0), utils, seed=int(seed)
        )
        assert list(result.summaries) == _direct(
            RuntimeCondition(PAIR, utils, (0.5, 2.0)), 300, int(seed)
        )


@pytest.mark.parametrize(
    "timeouts", [(1.0,), (1.0, 2.0, 3.0)], ids=["too-short", "too-long"]
)
def test_wrong_length_timeouts_rejected(timeouts):
    """A vector used to be zipped with the services and so truncated:
    ``(1.0,)`` ran redis alone and ``p95`` of three timeouts gave two."""
    evaluator = RuntimeEvaluator(ProfileDataset(), PAIR, n_queries=100)
    with pytest.raises(ValueError, match="must match workloads"):
        evaluator.evaluate(timeouts)
    with pytest.raises(ValueError, match="must match workloads"):
        evaluator.p95(timeouts)


@pytest.mark.parametrize(
    "timeouts,utilization",
    [
        ((float("nan"), 1.0), None),
        ((-1.0, 1.0), None),
        ((1.0, 1.0), (0.5, float("nan"))),
        ((1.0, 1.0), (0.5, 1.0)),
    ],
    ids=["nan-timeout", "negative-timeout", "nan-utilization", "full-load"],
)
def test_bad_vector_rejected(timeouts, utilization):
    evaluator = RuntimeEvaluator(ProfileDataset(), PAIR, n_queries=100)
    with pytest.raises(ValueError, match="timeouts|utilizations"):
        evaluator.evaluate(timeouts, utilization)


def test_wrong_length_utilizations_rejected():
    evaluator = RuntimeEvaluator(ProfileDataset(), PAIR, n_queries=100)
    with pytest.raises(ValueError, match="must match workloads"):
        evaluator.evaluate((1.0, 1.0), (0.5, 0.5, 0.5))


class TestEvaluatorConstruction:
    @pytest.mark.parametrize("n_queries", [0, -3])
    def test_bad_query_count(self, n_queries):
        with pytest.raises(ValueError, match="n_queries"):
            RuntimeEvaluator(ProfileDataset(), PAIR, n_queries=n_queries)

    @pytest.mark.parametrize("utilization", [float("nan"), 0.0, 1.0, 1.5, -0.2])
    def test_bad_utilization(self, utilization):
        with pytest.raises(ValueError, match="utilization"):
            RuntimeEvaluator(ProfileDataset(), PAIR, utilization=utilization)

    @pytest.mark.parametrize(
        "option", ["machine", "specs", "private_mb", "shared_mb"]
    )
    def test_layout_options_are_gone(self, option):
        with pytest.raises(TypeError, match=option):
            RuntimeEvaluator(ProfileDataset(), PAIR, **{option: 2.0})

    def test_hand_built_profile_gives_the_profiler_layout(self):
        evaluator = RuntimeEvaluator(ProfileDataset(), PAIR, n_queries=250)
        profiler = Profiler()
        assert evaluator.machine == profiler.machine
        assert evaluator.settings.n_queries == 250
        assert evaluator.settings.warmup_fraction == profiler.settings.warmup_fraction
        assert (evaluator.settings.private_mb, evaluator.settings.shared_mb) == (
            profiler.settings.private_mb,
            profiler.settings.shared_mb,
        )


@pytest.fixture
def testbed_runs(monkeypatch):
    """Every ``run_condition`` call the policies make: (machine, settings)."""
    from repro.baselines import policies

    calls = []
    real = policies.run_condition

    def spy(condition, machine, settings, seed):
        calls.append((machine, settings))
        return real(condition, machine, settings, seed)

    monkeypatch.setattr(policies, "run_condition", spy)
    return calls


def test_every_policy_truth_runs_the_profile_layout(profile, testbed_runs):
    evaluator = RuntimeEvaluator(profile, PAIR, n_queries=150)
    static_best_policy(evaluator)
    dynasprint_policy(evaluator, timeout_grid=(0.0, 1.0))
    dcat_policy(evaluator)
    assert testbed_runs
    for machine, settings in testbed_runs:
        assert machine is MACHINE
        assert settings == replace(profile.settings, n_queries=150)
        assert (settings.private_mb, settings.shared_mb) == (3.0, 1.5)
        assert settings.warmup_fraction == 0.2


def test_dcat_reads_the_profile_reservations():
    """With no shared region no workload gains from it, so the tie goes
    to the first; with the default 2 MB region redis wins over knn."""
    pair = ("knn", "redis")
    unshared = ProfileDataset(settings=ProfilerSettings(shared_mb=0.0))
    assert dcat_policy(RuntimeEvaluator(unshared, pair)).timeouts == (0.0, np.inf)
    assert dcat_policy(RuntimeEvaluator(ProfileDataset(), pair)).timeouts == (
        np.inf,
        0.0,
    )


def test_manager_modes_share_the_evaluators_runs(profile, testbed_runs):
    """Back-to-back adaptive and one-shot runs replay the same epoch
    seeds, so an epoch both modes run with one plan is simulated once."""
    evaluator = RuntimeEvaluator(profile, PAIR, n_queries=150, rng=2)
    manager = OnlineManager(_FixedPlan(), evaluator)
    scenario = LoadScenario(((0.6, 0.7), (0.8, 0.5), (0.4, 0.4)))
    adaptive = manager.run(scenario, adapt=True)
    one_shot = manager.run(scenario, adapt=False)
    assert len(testbed_runs) == 3
    assert [r.summaries for r in adaptive] == [r.summaries for r in one_shot]
