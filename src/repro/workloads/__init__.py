"""Workload substrate: synthetic analogues of the Table 1 benchmarks.

Each workload is described by a miss-ratio curve, a memory-boundedness
factor, and a service-time distribution; together these determine how
response time reacts to cache allocation — the behaviour the paper's
models must learn.
"""

from repro.workloads.base import WorkloadSpec
from repro.workloads.suite import (
    WORKLOADS,
    get_workload,
    all_workloads,
    table1_rows,
)
from repro.workloads.social import SocialGraph, build_social_workload
from repro.workloads.access import (
    zipf_stream,
    sequential_stream,
    strided_stream,
    loop_stream,
    workload_stream,
)
from repro.workloads.arrivals import (
    PoissonArrivals,
    MarkovModulatedArrivals,
)

__all__ = [
    "WorkloadSpec",
    "WORKLOADS",
    "get_workload",
    "all_workloads",
    "table1_rows",
    "SocialGraph",
    "build_social_workload",
    "zipf_stream",
    "sequential_stream",
    "strided_stream",
    "loop_stream",
    "workload_stream",
    "PoissonArrivals",
    "MarkovModulatedArrivals",
]
