"""Tests for per-service private reservations (asymmetric layouts)."""

import numpy as np
import pytest

from repro.cache import WayMask
from repro.testbed import (
    CollocatedService,
    CollocationConfig,
    CollocationRuntime,
    default_machine,
)
from repro.workloads import get_workload


def make_config(private_mb, shared_mb=2.0, timeouts=(1.0, 1.0)):
    return CollocationConfig(
        machine=default_machine(),
        services=[
            CollocatedService(get_workload(n), timeout=t, utilization=0.8)
            for n, t in zip(("redis", "knn"), timeouts)
        ],
        private_mb=private_mb,
        shared_mb=shared_mb,
    )


class TestAsymmetricConfig:
    def test_uniform_scalar_still_works(self):
        cfg = make_config(2.0)
        assert cfg.is_uniform
        assert cfg.private_ways == 1
        assert cfg.private_bytes == pytest.approx(2 * 1024 * 1024)

    def test_per_service_sizes(self):
        cfg = make_config([4.0, 2.0])
        assert not cfg.is_uniform
        # 4 MB and 2 MB are two ways and one way of 2 MB each.
        assert np.array_equal(
            cfg.private_bytes_per_service, [4 * 1024 * 1024, 2 * 1024 * 1024]
        )

    def test_uniform_accessors_guarded(self):
        cfg = make_config([4.0, 2.0])
        with pytest.raises(ValueError, match="per-service"):
            _ = cfg.private_ways

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            make_config([2.0, 2.0, 2.0])

    def test_way_budget_checked(self):
        with pytest.raises(ValueError, match="ways"):
            make_config([30.0, 30.0])

    def test_zero_shared_pure_partition(self):
        cfg = make_config([4.0, 2.0], shared_mb=0.0, timeouts=(np.inf, np.inf))
        pols = cfg.policies()
        # Boost == default: no short-term region at all.
        assert pols[0].default == pols[0].boost == WayMask(0, 2)
        assert pols[1].default == pols[1].boost == WayMask(2, 1)
        assert pols[0].gross_increase == 1.0

    def test_asymmetric_masks_contiguous_chain(self):
        cfg = make_config([4.0, 2.0], shared_mb=2.0)
        pols = cfg.policies()
        assert pols[0].default == WayMask(0, 2)
        assert pols[0].boost == WayMask(0, 3)
        assert pols[1].default == WayMask(3, 1)
        assert pols[1].boost == WayMask(2, 2)
        cfg.validate_conjectures()


class TestAsymmetricRuntime:
    def test_bigger_private_faster_baseline(self):
        cfg = make_config([6.0, 2.0], shared_mb=0.0, timeouts=(np.inf, np.inf))
        run = CollocationRuntime(cfg, rng=0).run(n_queries=600)
        redis = run.service("redis")
        # With 6 MB private, redis executes faster than its 2 MB baseline.
        assert redis.service_durations_norm.mean() < redis.demands.mean()
        assert redis.base_rate > 1.0

    def test_base_rate_one_for_baseline_private(self):
        cfg = make_config(2.0, timeouts=(np.inf, np.inf))
        run = CollocationRuntime(cfg, rng=1).run(n_queries=300)
        for s in run.services:
            assert s.base_rate == pytest.approx(1.0)

    def test_ea_accounts_for_base_rate(self):
        """With private above baseline, EA still lands in [1/gross, 1]."""
        cfg = make_config([4.0, 4.0], shared_mb=4.0, timeouts=(0.3, 0.3))
        run = CollocationRuntime(cfg, rng=2).run(n_queries=800)
        for s in run.services:
            ea = s.effective_allocation()
            assert 1.0 / s.gross_increase - 1e-9 <= ea <= 1.0 + 1e-9
