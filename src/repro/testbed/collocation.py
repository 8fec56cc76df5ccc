"""Collocation configuration: map services onto a machine's LLC ways.

Implements the chain layout the paper's contiguity constraint forces:

    [P0][S01][P1][S12][P2]...

Each service reserves a private region; adjacent services share the
region between their privates.  Every boost mask (private plus adjacent
shared regions) is contiguous, and each shared region has exactly two
sharers — the structure proved in Section 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cache.cat import CatController, ShortTermPolicy, WayMask
from repro.testbed.machine import MB, XeonSpec
from repro.workloads.base import WorkloadSpec


@dataclass(frozen=True)
class CollocatedService:
    """One service in a collocation: a workload plus its STAP timeout.

    ``arrival_process`` selects Poisson (the paper's exponential
    inter-arrivals) or a two-state MMPP ("mmpp") whose burst shape is
    set by ``burst_factor``/``burst_fraction`` — bursty traffic is what
    defeats low-rate-calibrated timeout settings.
    """

    workload: WorkloadSpec
    timeout: float  # relative to expected service time (Eq. 4); inf disables
    utilization: float = 0.9  # arrival rate relative to service capacity
    arrival_process: str = "poisson"
    burst_factor: float = 4.0
    burst_fraction: float = 0.2

    def __post_init__(self) -> None:
        # Written so NaN fails too (every comparison with NaN is False);
        # timeout=inf stays legal.
        if not self.timeout >= 0:
            raise ValueError(f"timeout must be >= 0, got {self.timeout}")
        if not 0 < self.utilization < 1:
            raise ValueError(
                f"utilization must be in (0, 1), got {self.utilization}"
            )
        if self.arrival_process not in ("poisson", "mmpp"):
            raise ValueError(
                f"unknown arrival_process {self.arrival_process!r}"
            )
        if not 1 < self.burst_factor < math.inf:
            raise ValueError(
                f"burst_factor must be finite and > 1, got {self.burst_factor}"
            )
        if not 0 < self.burst_fraction < 1:
            raise ValueError(
                f"burst_fraction must be in (0, 1), got {self.burst_fraction}"
            )


@dataclass
class CollocationConfig:
    """Services collocated on one machine with a chain way-layout.

    Parameters
    ----------
    machine:
        Processor spec (determines way size and capacity).
    services:
        Collocated services in chain order.
    private_mb:
        LLC reserved per service for baseline performance (paper: 2 MB
        on most machines, 3-4 MB on the larger ones).  Either one value
        for every service or a per-service sequence — asymmetric
        reservations are what utility-based partitioners (UCP) emit.
    shared_mb:
        Size of each shared region between adjacent services (0 gives a
        pure static partition with no short-term allocation regions).
    """

    machine: XeonSpec
    services: list[CollocatedService]
    private_mb: "float | list[float]" = 2.0
    shared_mb: float = 2.0
    _private_ways_list: list[int] = field(init=False)
    _shared_ways: int = field(init=False)

    def __post_init__(self) -> None:
        if len(self.services) < 1:
            raise ValueError("need at least one service")
        if len(self.services) > self.machine.max_collocated:
            raise ValueError(
                f"{len(self.services)} services exceed the "
                f"{self.machine.max_collocated} the machine's cores support"
            )
        n = len(self.services)
        if np.ndim(self.private_mb) == 0:
            per_service = [float(self.private_mb)] * n
        else:
            per_service = [float(x) for x in self.private_mb]
            if len(per_service) != n:
                raise ValueError(
                    f"private_mb has {len(per_service)} entries for {n} services"
                )
        if not all(math.isfinite(mb) and mb >= 0 for mb in per_service):
            raise ValueError(
                f"private_mb must be finite and >= 0, got {self.private_mb}"
            )
        if not (math.isfinite(self.shared_mb) and self.shared_mb >= 0):
            raise ValueError(
                f"shared_mb must be finite and >= 0, got {self.shared_mb}"
            )
        self._private_ways_list = [
            self.machine.mb_to_ways(mb) for mb in per_service
        ]
        self._shared_ways = (
            self.machine.mb_to_ways(self.shared_mb) if self.shared_mb > 0 else 0
        )
        needed = sum(self._private_ways_list) + max(0, n - 1) * self._shared_ways
        if needed > self.machine.llc_ways:
            raise ValueError(
                f"chain layout needs {needed} ways, "
                f"{self.machine.name} has {self.machine.llc_ways}"
            )

    @property
    def n_services(self) -> int:
        return len(self.services)

    @property
    def is_uniform(self) -> bool:
        return len(set(self._private_ways_list)) == 1

    @property
    def private_ways(self) -> int:
        """Per-service private ways (uniform layouts only)."""
        if not self.is_uniform:
            raise ValueError(
                "layout has per-service private sizes; use private_bytes_per_service"
            )
        return self._private_ways_list[0]

    @property
    def shared_ways(self) -> int:
        return self._shared_ways

    @property
    def private_bytes(self) -> float:
        """Per-service private bytes (uniform layouts only)."""
        return self.private_ways * self.machine.way_bytes

    @property
    def private_bytes_per_service(self) -> np.ndarray:
        return np.array(self._private_ways_list, dtype=float) * self.machine.way_bytes

    @property
    def shared_bytes(self) -> float:
        return self._shared_ways * self.machine.way_bytes

    def policies(self) -> list[ShortTermPolicy]:
        """Chain-layout short-term policies, one per service."""
        s = self._shared_ways
        n = len(self.services)
        out = []
        priv_off = 0
        for i, svc in enumerate(self.services):
            p = self._private_ways_list[i]
            default = WayMask(priv_off, p)
            lo = priv_off - s if (i > 0 and s > 0) else priv_off
            hi = priv_off + p + (s if (i < n - 1 and s > 0) else 0)
            boost = WayMask(lo, hi - lo)
            out.append(ShortTermPolicy(default, boost, svc.timeout))
            priv_off += p + s
        return out

    def controller(self) -> CatController:
        """A CatController with every service's policy registered."""
        ctl = CatController(n_ways=self.machine.llc_ways)
        for svc, pol in zip(self.services, self.policies()):
            ctl.register(svc.workload.name, pol)
        return ctl

    def shared_regions(self) -> list[tuple[int, int]]:
        """Index pairs (i, i+1) of services sharing each region."""
        return [(i, i + 1) for i in range(len(self.services) - 1)]

    def gross_increase(self, i: int) -> float:
        """l_a' / l_a for service ``i`` (Eq. 3 denominator)."""
        pol = self.policies()[i]
        return pol.gross_increase

    def validate_conjectures(self) -> None:
        """Assert the Section 2 structural properties hold for this layout."""
        ctl = self.controller()
        if not ctl.private_regions_disjoint():
            raise AssertionError("private regions overlap")
        if len(self.services) > 1 and not ctl.all_have_private_cache():
            raise AssertionError("some service lost its private region")
        if ctl.max_sharers() > 2:
            raise AssertionError("a setting shares cache with more than 2 others")
