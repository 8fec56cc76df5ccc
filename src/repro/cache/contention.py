"""Shared-way contention model.

When two collocated workloads are *both* in short-term allocation their
fills compete for the shared ways.  Following the occupancy model of
LRU-managed shared caches, each sharer's steady-state share of the
shared region is proportional to its miss (fill) intensity.  The module
also offers an equal-split variant for the ablation called out in
DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SharedWayContention:
    """Split ``shared_ways`` among concurrent sharers.

    Parameters
    ----------
    mode:
        ``"occupancy"`` (proportional to fill intensity) or ``"equal"``.
    churn:
        Extra capacity loss when multiple sharers fill concurrently.
        Interleaved fills in an LRU-shared region evict each other's
        lines before reuse, so each sharer's *useful* capacity is below
        its occupancy share — the superlinear interference that makes
        contention hard to predict from capacity alone (and that static
        partitioning work like dCat exists to avoid).  ``churn`` scales
        the loss: sharer *i* keeps ``share_i * (1 - churn * (1 -
        share_i/shared))``.  0 disables the effect.
    """

    mode: str = "occupancy"
    churn: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in ("occupancy", "equal"):
            raise ValueError(f"unknown contention mode {self.mode!r}")
        if not 0.0 <= self.churn <= 1.0:
            raise ValueError(f"churn must be in [0, 1], got {self.churn}")

    def effective_shared_ways(
        self, shared_ways: float, intensities
    ) -> np.ndarray:
        """Effective share of the shared region per sharer.

        Parameters
        ----------
        shared_ways:
            Size of the shared region (ways; fractional allowed because
            the testbed works in expected values).
        intensities:
            Per-sharer fill intensity (e.g. misses/second).  Entries of 0
            mean the sharer is not currently using the shared region and
            receive 0 ways.
        """
        lam = np.asarray(intensities, dtype=float)
        if np.any(lam < 0):
            raise ValueError("intensities must be non-negative")
        active = lam > 0
        n_active = int(active.sum())
        out = np.zeros_like(lam)
        if n_active == 0 or shared_ways <= 0:
            return out
        if n_active == 1:
            out[active] = shared_ways
            return out
        if self.mode == "equal":
            out[active] = shared_ways / n_active
        else:
            # Rescale by a power of two so the largest weight is in
            # [0.5, 1): exact for normal floats, and keeps subnormal
            # intensities from losing precision in ``shared_ways * lam``.
            w = np.ldexp(lam[active], -np.frexp(lam[active].max())[1])
            out[active] = shared_ways * w / w.sum()
        if self.churn > 0:
            frac = out[active] / shared_ways
            out[active] *= 1.0 - self.churn * (1.0 - frac)
        return out
