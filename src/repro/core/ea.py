"""Effective cache allocation (Equation 3): the no-contention ideal."""

from __future__ import annotations

from repro.workloads.base import WorkloadSpec


def ideal_effective_allocation(
    spec: WorkloadSpec,
    private_bytes: float,
    shared_bytes: float,
    gross_increase: float,
) -> float:
    """The no-contention EA a first-principles model would assume.

    EA is the *instantaneous* boosted speedup per unit gross allocation
    increase; with no sharer contending, the boosted capacity is the
    whole shared region plus private cache, and the speedup (relative
    to the default = private allocation) follows the workload's own
    miss-ratio curve.  This is the assumption behind the Figure 6
    "queueing model" baseline variants, which ignore shared-way
    contention entirely.
    """
    boosted_speed = float(
        spec.service_time(private_bytes)
        / spec.service_time(private_bytes + shared_bytes)
    )
    return boosted_speed / gross_increase
