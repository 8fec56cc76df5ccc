"""Tests for competing allocation policies."""

import numpy as np
import pytest

from repro.baselines import (
    RuntimeEvaluator,
    dcat_policy,
    dynasprint_policy,
    no_sharing_policy,
    static_best_policy,
)
from repro.baselines.policies import CALIBRATION_UTILIZATION
from repro.core import ProfileDataset


@pytest.fixture(scope="module")
def evaluator():
    return RuntimeEvaluator(
        ProfileDataset(), ("redis", "social"), n_queries=800, rng=0
    )


class TestEvaluator:
    def test_summary_per_service(self, evaluator):
        out = evaluator.evaluate((1.0, 1.0))
        assert len(out) == 2
        assert all(s.p95 > 0 for s in out)

    def test_caching(self, evaluator):
        a = evaluator.evaluate((1.0, 2.0))
        b = evaluator.evaluate((1.0, 2.0))
        assert a is b  # identical cached object

    def test_p95_vector(self, evaluator):
        p = evaluator.p95((np.inf, np.inf))
        assert p.shape == (2,)

    def test_utilization_override(self, evaluator):
        hi = evaluator.p95((np.inf, np.inf), utilization=0.9)
        lo = evaluator.p95((np.inf, np.inf), utilization=0.3)
        assert np.all(lo < hi)  # low load -> low response times


class TestNoSharing:
    def test_all_infinite(self):
        d = no_sharing_policy(3)
        assert d.timeouts == (np.inf, np.inf, np.inf)
        assert d.name == "no-sharing"

    def test_validation(self):
        with pytest.raises(ValueError):
            no_sharing_policy(0)


class TestStaticBest:
    def test_picks_share_when_it_helps(self, evaluator):
        d = static_best_policy(evaluator)
        assert d.name in ("static-share", "static-private")
        # With cache-sensitive redis+social, sharing should win.
        assert d.name == "static-share"

    def test_decision_is_actually_better(self, evaluator):
        d = static_best_policy(evaluator)
        other = (
            (np.inf, np.inf) if d.timeouts == (0.0, 0.0) else (0.0, 0.0)
        )
        assert evaluator.p95(d.timeouts).mean() <= evaluator.p95(other).mean()


class TestDCat:
    def test_winner_takes_shared_cache(self, evaluator):
        d = dcat_policy(evaluator)
        assert d.name == "dcat"
        finite = [t for t in d.timeouts if np.isfinite(t)]
        assert finite == [0.0]  # exactly one service gets the shared region

    def test_redis_wins_against_knn(self):
        """Redis has the steepest cache-speedup profile in the suite."""
        ev = RuntimeEvaluator(ProfileDataset(), ("redis", "knn"), n_queries=300, rng=1)
        d = dcat_policy(ev)
        assert d.timeouts[0] == 0.0 and np.isinf(d.timeouts[1])


class TestDynaSprint:
    def test_returns_grid_values(self, evaluator):
        d = dynasprint_policy(evaluator, timeout_grid=(0.0, 1.0, 3.0))
        assert d.name == "dynasprint"
        assert all(t in (0.0, 1.0, 3.0, np.inf) for t in d.timeouts)

    def test_calibrated_settings_beat_baseline_at_low_rate(self, evaluator):
        d = dynasprint_policy(evaluator, timeout_grid=(0.0, 1.0))
        lo_policy = evaluator.p95(d.timeouts, utilization=0.25)
        lo_base = evaluator.p95((np.inf, np.inf), utilization=0.25)
        assert lo_policy.mean() <= lo_base.mean() + 1e-9

    def test_empty_grid_rejected(self, evaluator):
        with pytest.raises(ValueError):
            dynasprint_policy(evaluator, timeout_grid=())

    def test_calibrates_at_the_module_rate(self, evaluator):
        """The calibration rate is a constant, not an option."""
        seen = []

        class Spy:
            n_services = 2

            def p95(self, timeouts, utilization):
                seen.append(utilization)
                return evaluator.p95(timeouts, utilization)

        dynasprint_policy(Spy(), timeout_grid=(0.0, 1.0))
        assert seen and set(seen) == {CALIBRATION_UTILIZATION}
        with pytest.raises(TypeError, match="calibration_utilization"):
            dynasprint_policy(evaluator, calibration_utilization=0.5)


class _FixedP95:
    """Evaluator stand-in whose p95 depends only on share vs private."""

    n_services = 2

    def __init__(self, share, private):
        self._p95 = {0.0: np.array(share), np.inf: np.array(private)}

    def p95(self, timeouts):
        return self._p95[timeouts[0]]


def test_static_best_picks_private_when_sharing_hurts():
    d = static_best_policy(_FixedP95(share=[3.0, 3.0], private=[2.0, 2.5]))
    assert d.name == "static-private"
    assert d.timeouts == (np.inf, np.inf)


def test_static_best_prefers_sharing_on_a_tie():
    d = static_best_policy(_FixedP95(share=[2.0, 2.0], private=[2.0, 2.0]))
    assert d.name == "static-share"
    assert d.timeouts == (0.0, 0.0)
