"""Cache Allocation Technology (CAT) substrate.

Implements the data path of Figure 1 in the paper: a set-associative
last-level cache whose fill (write-enable) logic is constrained by
contiguous way masks, plus the class-of-service bookkeeping that Intel
CAT exposes, analytic miss-ratio curves, and the shared-way contention
model used by the collocation testbed.
"""

from repro.cache.geometry import CacheGeometry
from repro.cache.cat import (
    WayMask,
    AllocationSetting,
    ShortTermPolicy,
    CatController,
    private_region,
)
from repro.cache.setassoc import SetAssociativeCache, AccessResult
from repro.cache.mrc import MissRatioCurve, fit_exponential_mrc, measure_mrc
from repro.cache.contention import SharedWayContention

__all__ = [
    "CacheGeometry",
    "WayMask",
    "AllocationSetting",
    "ShortTermPolicy",
    "CatController",
    "private_region",
    "SetAssociativeCache",
    "AccessResult",
    "MissRatioCurve",
    "fit_exponential_mrc",
    "measure_mrc",
    "SharedWayContention",
]
