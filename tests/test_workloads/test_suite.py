"""Tests for the Table 1 suite registry and calibration properties."""

import pytest

from repro.workloads import (
    WORKLOADS,
    all_workloads,
    get_workload,
    table1_rows,
)
from repro.workloads.base import MB


class TestRegistry:
    def test_eight_workloads(self):
        assert len(WORKLOADS) == 8
        assert set(WORKLOADS) == {
            "jacobi",
            "knn",
            "kmeans",
            "spkmeans",
            "spstream",
            "bfs",
            "social",
            "redis",
        }

    def test_get_workload_case_insensitive(self):
        assert get_workload("Redis").name == "redis"

    def test_get_workload_unknown(self):
        with pytest.raises(KeyError, match="available"):
            get_workload("mysql")

    def test_table1_rows(self):
        rows = table1_rows()
        assert len(rows) == 8
        assert all(
            {"wrk_id", "description", "cache_access_pattern"} == set(r) for r in rows
        )


class TestCalibration:
    """The qualitative Table 1 patterns must hold quantitatively."""

    def test_baseline_service_times_from_paper(self):
        assert get_workload("social").baseline_service_time == pytest.approx(7.5e-3)
        assert get_workload("spkmeans").baseline_service_time == pytest.approx(81.0)
        assert get_workload("spstream").baseline_service_time == pytest.approx(1.0)
        assert get_workload("redis").baseline_service_time == pytest.approx(1.0e-3)

    def test_high_reuse_kernels_have_small_footprints(self):
        for name in ("knn", "kmeans"):
            w = get_workload(name)
            assert w.mrc.footprint_bytes <= 2 * MB
            assert w.mrc.m_inf < 0.05  # low cache misses

    def test_streaming_has_high_miss_floor(self):
        assert get_workload("spstream").mrc.m_inf > 0.4

    def test_redis_gains_most_from_extra_cache(self):
        """Section 5.2: 'Redis benefits greatly from additional cache lines'."""
        speedups = {w.name: w.speedup(8 * MB) for w in all_workloads()}
        assert speedups["redis"] == max(speedups.values())

    def test_high_reuse_kernels_have_lowest_baseline_misses(self):
        """Table 1: KNN/Kmeans run at 'low cache misses' — their working
        sets fit in the 2 MB baseline allocation."""
        mrs = {
            w.name: w.mrc.miss_ratio(w.baseline_capacity) for w in all_workloads()
        }
        ranked = sorted(mrs, key=mrs.get)
        assert set(ranked[:2]) == {"knn", "kmeans"}

    def test_streaming_gains_least_from_extra_cache(self):
        """Spstream's compulsory-miss floor means extra ways barely help."""
        speedups = {w.name: w.speedup(8 * MB) for w in all_workloads()}
        assert speedups["spstream"] == min(speedups.values())

    def test_social_has_heavy_tail(self):
        """DAG fanout should make Social's CV the largest in the suite."""
        cvs = {w.name: w.service_cv for w in all_workloads()}
        assert cvs["social"] == max(cvs.values())

    def test_social_process_count(self):
        assert get_workload("social").n_processes == 36

    def test_all_specs_well_formed(self):
        for w in all_workloads():
            assert 0 < w.memory_boundedness <= 1
            assert w.mrc.m_inf <= w.mrc.m0
            assert w.stream_kind in ("zipf", "sequential", "strided", "loop")
