"""Tests for CAT way masks, policies and the Section 2 conjectures."""

import pytest
from hypothesis import given, strategies as st

from repro.cache import (
    CatController,
    ShortTermPolicy,
    WayMask,
    private_region,
)
from repro.cache.cat import pairwise_layout


class TestWayMask:
    def test_ways(self):
        m = WayMask(2, 3)
        assert list(m.ways()) == [2, 3, 4]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WayMask(0, 0)

    def test_rejects_negative_offset(self):
        with pytest.raises(ValueError):
            WayMask(-1, 2)

    def test_overlap_and_intersection(self):
        a, b = WayMask(0, 4), WayMask(2, 4)
        assert a.overlaps(b) and b.overlaps(a)
        assert a.intersection(b) == WayMask(2, 2)

    def test_disjoint_intersection_none(self):
        assert WayMask(0, 2).intersection(WayMask(2, 2)) is None
        assert not WayMask(0, 2).overlaps(WayMask(2, 2))

    def test_covers(self):
        assert WayMask(0, 6).covers(WayMask(1, 3))
        assert not WayMask(1, 3).covers(WayMask(0, 6))

    @given(
        st.integers(0, 20), st.integers(1, 10), st.integers(0, 20), st.integers(1, 10)
    )
    def test_overlap_symmetric_and_matches_sets(self, o1, l1, o2, l2):
        a, b = WayMask(o1, l1), WayMask(o2, l2)
        sets_overlap = bool(set(a.ways().tolist()) & set(b.ways().tolist()))
        assert a.overlaps(b) == sets_overlap == b.overlaps(a)

    @given(
        st.integers(0, 20), st.integers(1, 10), st.integers(0, 20), st.integers(1, 10)
    )
    def test_intersection_matches_set_semantics(self, o1, l1, o2, l2):
        a, b = WayMask(o1, l1), WayMask(o2, l2)
        expect = sorted(set(a.ways().tolist()) & set(b.ways().tolist()))
        inter = a.intersection(b)
        got = [] if inter is None else inter.ways().tolist()
        assert got == expect


class TestShortTermPolicy:
    def test_gross_increase(self):
        p = ShortTermPolicy(WayMask(0, 2), WayMask(0, 4), timeout=1.5)
        assert p.gross_increase == 2.0

    def test_boost_must_cover_default(self):
        with pytest.raises(ValueError, match="cover"):
            ShortTermPolicy(WayMask(0, 4), WayMask(2, 4), timeout=1.0)

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            ShortTermPolicy(WayMask(0, 2), WayMask(0, 3), timeout=-1)

    def test_nan_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            ShortTermPolicy(WayMask(0, 2), WayMask(0, 4), timeout=float("nan"))


class TestPrivateRegion:
    def test_no_others_full_default(self):
        p = ShortTermPolicy(WayMask(0, 2), WayMask(0, 4), timeout=1.0)
        assert private_region(p, []) == WayMask(0, 2)

    def test_pairwise_layout_private_regions(self):
        pa, pb = pairwise_layout(8, private_ways=2, shared_ways=2, timeouts=(1.0, 1.0))
        assert private_region(pa, [pb]) == WayMask(0, 2)
        assert private_region(pb, [pa]) == WayMask(4, 2)

    def test_fully_shared_no_private(self):
        a = ShortTermPolicy(WayMask(0, 4), WayMask(0, 4), timeout=1.0)
        b = ShortTermPolicy(WayMask(0, 4), WayMask(0, 4), timeout=1.0)
        assert private_region(a, [b]) is None

    @given(st.data())
    def test_region_inside_default_and_clear_of_others(self, data):
        def policy():
            off = data.draw(st.integers(0, 6))
            length = data.draw(st.integers(1, 4))
            grow = data.draw(st.integers(0, 3))
            lead = data.draw(st.integers(0, min(off, grow)))
            return ShortTermPolicy(
                WayMask(off, length), WayMask(off - lead, length + grow), 1.0
            )

        p = policy()
        others = [policy() for _ in range(data.draw(st.integers(0, 3)))]
        region = private_region(p, others)
        if region is None:
            return
        assert p.default.covers(region)
        for o in others:
            assert not region.overlaps(o.default)
            assert not region.overlaps(o.boost)


class TestCatController:
    def _controller(self, n_ways=8):
        ctl = CatController(n_ways=n_ways)
        pa, pb = pairwise_layout(
            n_ways, private_ways=2, shared_ways=2, timeouts=(1.0, 2.0)
        )
        ctl.register("A", pa)
        ctl.register("B", pb)
        return ctl

    def test_register_rejects_oversized_policy(self):
        ctl = CatController(n_ways=4)
        with pytest.raises(ValueError, match="beyond"):
            ctl.register("X", ShortTermPolicy(WayMask(0, 3), WayMask(0, 6), 1.0))

    def test_conjecture1_private_disjoint(self):
        ctl = self._controller()
        assert ctl.private_regions_disjoint()
        assert ctl.all_have_private_cache()

    def test_conjecture2_max_two_sharers(self):
        # Three workloads on a 12-way LLC, middle one shares with both sides.
        ctl = CatController(n_ways=12)
        ctl.register("L", ShortTermPolicy(WayMask(0, 2), WayMask(0, 4), 1.0))
        ctl.register(
            "M", ShortTermPolicy(WayMask(5, 2), WayMask(3, 6), 1.0)
        )  # shares 3-4 with L's boost and 9-10... no: boost is 3..8
        ctl.register("R", ShortTermPolicy(WayMask(10, 2), WayMask(8, 4), 1.0))
        assert ctl.all_have_private_cache()
        assert ctl.max_sharers() <= 2

    @given(st.data())
    def test_conjectures_hold_for_random_valid_layouts(self, data):
        """Any pairwise layout generated by pairwise_layout satisfies both
        Section 2 conjectures."""
        n_ways = data.draw(st.integers(6, 24))
        private = data.draw(st.integers(1, max(1, (n_ways - 1) // 2 - 1)))
        max_shared = n_ways - 2 * private
        shared = data.draw(st.integers(1, max(1, max_shared)))
        if 2 * private + shared > n_ways:
            return
        ctl = CatController(n_ways=n_ways)
        pa, pb = pairwise_layout(n_ways, private, shared, timeouts=(1.0, 1.0))
        ctl.register("A", pa)
        ctl.register("B", pb)
        assert ctl.private_regions_disjoint()
        assert ctl.max_sharers() <= 2


class TestPairwiseLayout:
    def test_rejects_overcommitted_layout(self):
        with pytest.raises(ValueError, match="ways"):
            pairwise_layout(8, private_ways=3, shared_ways=4, timeouts=(1.0, 1.0))

    def test_shared_region_is_shared(self):
        pa, pb = pairwise_layout(10, 3, 2, timeouts=(0.5, 1.5))
        inter = pa.boost.intersection(pb.boost)
        assert inter is not None and inter.length == 2
        assert pa.timeout == 0.5 and pb.timeout == 1.5


class TestPrivateRegionShrinking:
    def test_left_intrusion_keeps_right_side(self):
        own = ShortTermPolicy(WayMask(0, 4), WayMask(0, 4), timeout=1.0)
        other = ShortTermPolicy(WayMask(0, 1), WayMask(0, 1), timeout=1.0)
        assert private_region(own, [other]) == WayMask(1, 3)

    def test_right_intrusion_keeps_left_side(self):
        own = ShortTermPolicy(WayMask(0, 4), WayMask(0, 4), timeout=1.0)
        other = ShortTermPolicy(WayMask(3, 1), WayMask(3, 1), timeout=1.0)
        assert private_region(own, [other]) == WayMask(0, 3)

    def test_policy_lookup_returns_registered_policy(self):
        ctl = CatController(n_ways=8)
        pa, pb = pairwise_layout(8, private_ways=2, shared_ways=2, timeouts=(1.0, 2.0))
        ctl.register("A", pa)
        ctl.register("B", pb)
        assert ctl.policy("A") is pa and ctl.policy("B") is pb
        with pytest.raises(KeyError):
            ctl.policy("C")
