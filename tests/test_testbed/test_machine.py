"""Tests for the Xeon machine catalogue."""

import pytest

from repro.testbed import MACHINES, XeonSpec, default_machine, get_machine
from repro.testbed.machine import MB


class TestCatalogue:
    def test_five_machines(self):
        assert len(MACHINES) == 5

    def test_default_is_e5_2683(self):
        m = default_machine()
        assert m.name == "e5-2683"
        assert m.n_cores == 16
        assert m.llc_mb == pytest.approx(40.0)

    def test_paper_llc_sizes_present(self):
        sizes = sorted(m.llc_mb for m in MACHINES.values())
        assert sizes == [20.0, 30.0, 40.0, 59.0, 72.0]

    def test_get_machine_case_insensitive(self):
        assert get_machine("E5-2650").llc_mb == 30.0

    def test_get_machine_unknown(self):
        with pytest.raises(KeyError, match="available"):
            get_machine("epyc")


class TestSpecMath:
    def test_way_bytes_e5_2683(self):
        # 40 MB over 20 ways = 2 MB per way: the paper's baseline quantum.
        assert default_machine().way_bytes == pytest.approx(2 * MB)

    def test_max_collocated(self):
        assert default_machine().max_collocated == 8
        assert get_machine("e5-2620").max_collocated == 4

    def test_mb_to_ways_rounds_up(self):
        m = default_machine()
        assert m.mb_to_ways(2.0) == 1
        assert m.mb_to_ways(2.1) == 2
        assert m.mb_to_ways(0.5) == 1

    def test_mb_to_ways_clamped_to_llc(self):
        m = default_machine()
        assert m.mb_to_ways(1000.0) == m.llc_ways

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ValueError):
            XeonSpec(name="x", n_cores=1, llc_bytes=MB, llc_ways=4)
        with pytest.raises(ValueError):
            XeonSpec(name="x", n_cores=4, llc_bytes=MB, llc_ways=1)

    def test_service_without_cores_rejected(self):
        """A loaded dataset header rebuilds its machine through here, so
        an executor count below one must not reach Stage 3."""
        with pytest.raises(ValueError):
            XeonSpec(
                name="x", n_cores=4, llc_bytes=MB, llc_ways=4, cores_per_service=0
            )
