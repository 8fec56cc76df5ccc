"""The Table 1 benchmark suite, calibrated to its qualitative patterns.

MRC and memory-boundedness parameters are chosen so that each workload's
response to cache allocation matches the paper's description: high-reuse
kernels (KNN, Kmeans) have small footprints and gain little from extra
ways; streaming workloads (Spstream) have high compulsory miss floors;
Redis is highly memory-bound so extra cache lines speed it up a lot
(Section 5.2); baseline service times come from Section 5.
"""

from __future__ import annotations


from repro.cache.mrc import MissRatioCurve
from repro.workloads.base import MB, WorkloadSpec
from repro.workloads.social import build_social_workload


def _make_suite() -> dict[str, WorkloadSpec]:
    specs = [
        WorkloadSpec(
            name="jacobi",
            description="Solves the Helmholtz equation",
            cache_pattern="Memory intensive, moderate cache misses",
            mrc=MissRatioCurve(m0=0.55, m_inf=0.16, footprint_bytes=8 * MB),
            baseline_service_time=2.0,
            memory_boundedness=0.68,
            service_cv=0.25,
            access_intensity=3.0e6,
            store_fraction=0.4,
            n_processes=16,
            stream_kind="strided",
        ),
        WorkloadSpec(
            name="knn",
            description="K-nearest neighbors",
            cache_pattern="High data reuse, low cache misses",
            mrc=MissRatioCurve(m0=0.40, m_inf=0.02, footprint_bytes=0.6 * MB),
            baseline_service_time=0.5,
            memory_boundedness=0.30,
            service_cv=0.20,
            access_intensity=1.2e6,
            store_fraction=0.15,
            n_processes=16,
            stream_kind="loop",
        ),
        WorkloadSpec(
            name="kmeans",
            description="Cluster analysis in data mining",
            cache_pattern="High data reuse, low cache misses",
            mrc=MissRatioCurve(m0=0.45, m_inf=0.03, footprint_bytes=0.8 * MB),
            baseline_service_time=1.2,
            memory_boundedness=0.35,
            service_cv=0.22,
            access_intensity=1.4e6,
            store_fraction=0.2,
            n_processes=16,
            stream_kind="loop",
        ),
        WorkloadSpec(
            name="spkmeans",
            description="Spark cluster analysis",
            cache_pattern="Higher cache misses b/c of tasks execution",
            mrc=MissRatioCurve(m0=0.60, m_inf=0.12, footprint_bytes=6 * MB),
            baseline_service_time=81.0,
            memory_boundedness=0.55,
            service_cv=0.40,
            access_intensity=2.5e6,
            store_fraction=0.3,
            n_processes=16,
            stream_kind="zipf",
        ),
        WorkloadSpec(
            name="spstream",
            description="Spark extract words from stream",
            cache_pattern="I/O intensive, high cache misses",
            mrc=MissRatioCurve(m0=0.80, m_inf=0.48, footprint_bytes=12 * MB),
            baseline_service_time=1.0,
            memory_boundedness=0.45,
            service_cv=0.45,
            access_intensity=3.5e6,
            store_fraction=0.45,
            n_processes=16,
            stream_kind="sequential",
        ),
        WorkloadSpec(
            name="bfs",
            description="Breadth-first-search",
            cache_pattern="Limited data reuse, moderate cache misses",
            mrc=MissRatioCurve(m0=0.55, m_inf=0.26, footprint_bytes=10 * MB),
            baseline_service_time=1.5,
            memory_boundedness=0.60,
            service_cv=0.30,
            access_intensity=2.8e6,
            store_fraction=0.2,
            n_processes=16,
            stream_kind="zipf",
        ),
        build_social_workload(rng=2022),
        WorkloadSpec(
            name="redis",
            description="YCSB: session store recording recent actions",
            cache_pattern="Low data reuse, high cache misses",
            mrc=MissRatioCurve(m0=0.85, m_inf=0.22, footprint_bytes=4 * MB),
            baseline_service_time=1.0e-3,
            memory_boundedness=0.78,
            service_cv=0.30,
            access_intensity=4.0e6,
            store_fraction=0.5,
            n_processes=4,
            stream_kind="zipf",
        ),
    ]
    return {s.name: s for s in specs}


#: Registry keyed by workload id (Table 1 names, lowercased).
WORKLOADS: dict[str, WorkloadSpec] = _make_suite()


def get_workload(name: str) -> WorkloadSpec:
    """Look up one workload; raises ``KeyError`` with the valid names."""
    try:
        return WORKLOADS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(WORKLOADS)}"
        ) from None


def all_workloads() -> list[WorkloadSpec]:
    """All eight Table 1 workloads."""
    return list(WORKLOADS.values())


def table1_rows() -> list[dict[str, str]]:
    """Table 1 as structured rows (for the bench harness)."""
    return [
        {
            "wrk_id": s.name,
            "description": s.description,
            "cache_access_pattern": s.cache_pattern,
        }
        for s in all_workloads()
    ]
