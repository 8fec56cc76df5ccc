"""Analytic miss-ratio curves (MRCs).

The testbed needs a fast mapping from *allocated LLC capacity* to *miss
ratio* for each workload.  We use the classic exponential-footprint
form

    m(c) = m_inf + (m0 - m_inf) * exp(-c / footprint)

which captures the qualitative cache access patterns of Table 1: high
data reuse means a small ``footprint`` (misses fall quickly with
capacity); streaming/I/O-bound workloads have ``m_inf`` close to ``m0``
(extra cache barely helps).  Curves can be specified directly or fitted
from the set-associative simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from repro.cache.cat import WayMask
from repro.cache.geometry import CacheGeometry
from repro.cache.setassoc import SetAssociativeCache


@dataclass(frozen=True)
class MissRatioCurve:
    """Exponential-footprint miss-ratio curve.

    Parameters
    ----------
    m0:
        Miss ratio at (near) zero cache.
    m_inf:
        Compulsory miss floor as capacity grows unbounded.
    footprint_bytes:
        Capacity scale over which the curve decays.
    """

    m0: float
    m_inf: float
    footprint_bytes: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.m_inf <= self.m0 <= 1.0:
            raise ValueError(
                f"need 0 <= m_inf <= m0 <= 1, got m0={self.m0}, m_inf={self.m_inf}"
            )
        if self.footprint_bytes <= 0:
            raise ValueError(f"footprint_bytes must be > 0, got {self.footprint_bytes}")

    def miss_ratio(self, capacity_bytes) -> np.ndarray | float:
        """Miss ratio at the given capacity (scalar or array, bytes)."""
        c = np.asarray(capacity_bytes, dtype=float)
        out = self.m_inf + (self.m0 - self.m_inf) * np.exp(-c / self.footprint_bytes)
        return float(out) if out.ndim == 0 else out


def fit_exponential_mrc(capacities, miss_ratios) -> MissRatioCurve:
    """Least-squares fit of the exponential form to measured points."""
    c = np.asarray(capacities, dtype=float)
    m = np.asarray(miss_ratios, dtype=float)
    if c.shape != m.shape or c.ndim != 1 or c.size < 3:
        raise ValueError("need matching 1-D arrays with at least 3 points")

    def model(x, m0, m_inf, fp):
        return m_inf + (m0 - m_inf) * np.exp(-x / fp)

    m0_guess = float(m.max())
    minf_guess = float(m.min())
    fp_guess = float(np.median(c)) or 1.0
    popt, _ = curve_fit(
        model,
        c,
        m,
        p0=[m0_guess, max(minf_guess, 1e-6), fp_guess],
        bounds=([0.0, 0.0, 1e-9], [1.0, 1.0, np.inf]),
        maxfev=20000,
    )
    m0, m_inf, fp = popt
    if m_inf > m0:  # degenerate fit on flat data
        m0 = m_inf = float(m.mean())
    return MissRatioCurve(m0=float(m0), m_inf=float(m_inf), footprint_bytes=float(fp))


def measure_mrc(
    address_stream: np.ndarray,
    geometry: CacheGeometry,
    way_counts=None,
    warmup_fraction: float = 0.25,
) -> tuple[np.ndarray, np.ndarray]:
    """Measure miss ratio vs allocated ways with the set-associative sim.

    Returns ``(capacities_bytes, miss_ratios)`` suitable for
    :func:`fit_exponential_mrc`.
    """
    stream = np.asarray(address_stream, dtype=np.int64)
    if way_counts is None:
        way_counts = np.arange(1, geometry.n_ways + 1)
    way_counts = np.asarray(way_counts, dtype=int)
    warm = int(stream.shape[0] * warmup_fraction)
    caps = []
    ratios = []
    for w in way_counts:
        cache = SetAssociativeCache(geometry)
        mask = WayMask(0, int(w))
        cache.access(stream[:warm], mask=mask)
        res = cache.access(stream[warm:], mask=mask)
        caps.append(w * geometry.way_size_bytes)
        ratios.append(res.miss_ratio)
    return np.asarray(caps, dtype=float), np.asarray(ratios, dtype=float)
