"""Workload specification: how service time responds to cache allocation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro._util import as_rng
from repro.cache.mrc import MissRatioCurve

MB = 1024 * 1024


@dataclass(frozen=True)
class WorkloadSpec:
    """A collocatable online service.

    Parameters
    ----------
    name:
        Short identifier (Table 1 "Wrk ID").
    description:
        Table 1 description.
    cache_pattern:
        Table 1 qualitative cache access pattern.
    mrc:
        Miss-ratio curve mapping allocated LLC capacity to miss ratio.
    baseline_service_time:
        Mean service time (seconds) at the baseline allocation
        (``baseline_capacity`` LLC + 2 cores, per Section 5).
    baseline_capacity:
        LLC bytes reserved for baseline performance (paper: 2 MB).
    memory_boundedness:
        Fraction of baseline execution time spent in memory stalls; the
        stall component scales with the miss ratio, so this controls how
        much extra cache helps.
    service_cv:
        Coefficient of variation of per-query service demand (lognormal).
    access_intensity:
        LLC fill pressure in accesses/second; drives contention weighting
        and counter magnitudes.
    store_fraction:
        Fraction of memory accesses that are stores (counter attribution).
    n_processes:
        OS processes/threads mapped to this workload's allocation setting.
    stream_kind:
        Which synthetic access-stream generator models this workload
        (see :mod:`repro.workloads.access`).
    """

    name: str
    description: str
    cache_pattern: str
    mrc: MissRatioCurve
    baseline_service_time: float
    memory_boundedness: float
    service_cv: float = 0.35
    access_intensity: float = 1e6
    store_fraction: float = 0.3
    n_processes: int = 16
    baseline_capacity: float = 2 * MB
    stream_kind: str = "zipf"

    def __post_init__(self) -> None:
        # Written so NaN fails too (every comparison with NaN is False).
        if not 0 < self.baseline_service_time < math.inf:
            raise ValueError("baseline_service_time must be finite and > 0")
        if not 0.0 <= self.memory_boundedness <= 1.0:
            raise ValueError("memory_boundedness must be in [0, 1]")
        if not 0 <= self.service_cv < math.inf:
            raise ValueError("service_cv must be finite and >= 0")
        if not 0 < self.access_intensity < math.inf:
            raise ValueError("access_intensity must be finite and > 0")
        if not 0.0 <= self.store_fraction <= 1.0:
            raise ValueError("store_fraction must be in [0, 1]")
        if not self.n_processes >= 1:
            raise ValueError("n_processes must be >= 1")
        if not 0 < self.baseline_capacity < math.inf:
            raise ValueError("baseline_capacity must be finite and > 0")

    # -- service-time response to cache -----------------------------------

    def service_time(self, capacity_bytes) -> np.ndarray | float:
        """Expected service time when allocated ``capacity_bytes`` of LLC.

        The compute component is capacity-independent; the memory-stall
        component scales with the miss ratio relative to baseline:

            T(c) = T_b * [(1 - beta) + beta * m(c) / m(c_b)]
        """
        m_base = self.mrc.miss_ratio(self.baseline_capacity)
        if m_base <= 0:
            return self.baseline_service_time
        m = self.mrc.miss_ratio(capacity_bytes)
        factor = (1.0 - self.memory_boundedness) + self.memory_boundedness * (
            np.asarray(m) / m_base
        )
        out = self.baseline_service_time * factor
        return float(out) if np.ndim(out) == 0 else out

    def speedup(self, capacity_bytes: float) -> float:
        """Baseline service time divided by service time at ``capacity_bytes``."""
        return self.baseline_service_time / float(self.service_time(capacity_bytes))

    def fill_intensity(self, capacity_bytes: float) -> float:
        """LLC fill (miss) pressure at the given capacity: accesses x miss ratio.

        Used by the contention model to split shared ways.
        """
        return self.access_intensity * float(self.mrc.miss_ratio(capacity_bytes))

    # -- stochastic per-query demand ---------------------------------------

    def _lognormal_params(self) -> tuple[float, float]:
        """(mu, sigma) of a lognormal with mean 1 and the configured CV."""
        cv2 = self.service_cv**2
        sigma2 = np.log1p(cv2)
        mu = -0.5 * sigma2
        return mu, float(np.sqrt(sigma2))

    def sample_demands(self, n: int, rng=None) -> np.ndarray:
        """Per-query service demands, normalized to mean 1.

        Demands are *work* multipliers: actual service time is demand x
        :meth:`service_time` at the instantaneous allocation.
        """
        rng = as_rng(rng)
        if self.service_cv == 0:
            return np.ones(n)
        mu, sigma = self._lognormal_params()
        return rng.lognormal(mu, sigma, size=n)
