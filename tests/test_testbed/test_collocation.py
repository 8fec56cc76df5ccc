"""Tests for the chain collocation layout."""

import numpy as np
import pytest

from repro.cache import WayMask
from repro.testbed import CollocatedService, CollocationConfig, default_machine, get_machine
from repro.workloads import get_workload


def make_config(names=("jacobi", "bfs"), timeouts=None, machine=None, **kw):
    timeouts = timeouts or [1.5] * len(names)
    return CollocationConfig(
        machine=machine or default_machine(),
        services=[
            CollocatedService(get_workload(n), timeout=t)
            for n, t in zip(names, timeouts)
        ],
        **kw,
    )


class TestCollocatedService:
    def test_validation(self):
        with pytest.raises(ValueError):
            CollocatedService(get_workload("bfs"), timeout=-1)
        with pytest.raises(ValueError):
            CollocatedService(get_workload("bfs"), timeout=1.0, utilization=1.5)

    def test_infinite_timeout_allowed(self):
        svc = CollocatedService(get_workload("bfs"), timeout=np.inf)
        assert np.isinf(svc.timeout)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("timeout", np.nan),
            ("burst_factor", np.nan),
            ("burst_factor", np.inf),
            ("burst_factor", 1.0),
            ("burst_fraction", np.nan),
            ("burst_fraction", 0.0),
            ("burst_fraction", 1.0),
        ],
    )
    def test_non_finite_or_out_of_range_field_rejected(self, field, value):
        kw = {"timeout": 1.0, "arrival_process": "mmpp", field: value}
        with pytest.raises(ValueError, match=field):
            CollocatedService(get_workload("bfs"), **kw)


class TestLayout:
    def test_paper_example_way_indices(self):
        """Section 5's example: pairwise private + 2 shared ways between."""
        cfg = make_config(("jacobi", "bfs"))
        pols = cfg.policies()
        # 2 MB = 1 way on the E5-2683; jacobi gets way 0, shared way 1,
        # bfs way 2.
        assert pols[0].default == WayMask(0, 1)
        assert pols[0].boost == WayMask(0, 2)
        assert pols[1].default == WayMask(2, 1)
        assert pols[1].boost == WayMask(1, 2)

    def test_three_service_chain(self):
        cfg = make_config(("jacobi", "bfs", "redis"), timeouts=[1.0, 1.0, 1.0])
        pols = cfg.policies()
        # Middle service may share on both sides; masks stay contiguous.
        assert pols[1].boost.covers(pols[1].default)
        cfg.validate_conjectures()

    def test_conjectures_validated(self):
        make_config().validate_conjectures()

    def test_gross_increase(self):
        cfg = make_config()
        assert cfg.gross_increase(0) == pytest.approx(2.0)

    def test_shared_regions(self):
        cfg = make_config(("jacobi", "bfs", "redis"))
        assert cfg.shared_regions() == [(0, 1), (1, 2)]

    def test_private_and_shared_bytes(self):
        cfg = make_config(private_mb=2.0, shared_mb=2.0)
        assert cfg.private_bytes == pytest.approx(2 * 1024 * 1024)
        assert cfg.shared_bytes == pytest.approx(2 * 1024 * 1024)

    def test_too_many_services_for_cores(self):
        names = ["jacobi"] * 9  # e5-2683 hosts at most 8 two-core services
        with pytest.raises(ValueError, match="cores"):
            make_config(tuple(names))

    def test_too_many_ways_needed(self):
        with pytest.raises(ValueError, match="ways"):
            make_config(("jacobi", "bfs"), machine=get_machine("e5-2620"),
                        private_mb=8.0, shared_mb=8.0)

    @pytest.mark.parametrize(
        "value", [-1.0, np.nan, np.inf, [2.0, -1.0], [2.0, np.inf]]
    )
    def test_impossible_private_reservation_rejected(self, value):
        with pytest.raises(ValueError, match="private_mb"):
            make_config(private_mb=value)

    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
    def test_impossible_shared_reservation_rejected(self, value):
        with pytest.raises(ValueError, match="shared_mb"):
            make_config(shared_mb=value)

    def test_zero_private_reservation_is_one_way(self):
        assert make_config(private_mb=0.0).private_ways == 1

    def test_controller_registration(self):
        ctl = make_config().controller()
        assert set(ctl.workloads) == {"jacobi", "bfs"}

    def test_single_service_no_sharing(self):
        cfg = make_config(("redis",), timeouts=[1.0])
        assert cfg.shared_regions() == []
        assert cfg.gross_increase(0) == 1.0


def test_config_needs_a_service():
    with pytest.raises(ValueError, match="at least one service"):
        CollocationConfig(machine=default_machine(), services=[])


def test_shared_ways_follow_the_shared_reservation():
    cfg = make_config(shared_mb=4.0)
    assert cfg.shared_ways == cfg.machine.mb_to_ways(4.0)
    assert make_config(shared_mb=0.0).shared_ways == 0
