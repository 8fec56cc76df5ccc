"""Query arrival processes.

The paper defines arrival rate relative to service time (Table 2:
25%-95% utilization) with exponential inter-arrival times (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import as_rng
from repro._util.validation import check_positive


@dataclass(frozen=True)
class PoissonArrivals:
    """Exponential inter-arrival times at the given rate (queries/sec)."""

    rate: float

    def __post_init__(self) -> None:
        check_positive("rate", self.rate)

    def sample(self, n: int, rng=None) -> np.ndarray:
        """Arrival timestamps for ``n`` queries, starting after t=0."""
        rng = as_rng(rng)
        gaps = rng.exponential(1.0 / self.rate, size=n)
        return np.cumsum(gaps)


@dataclass(frozen=True)
class MarkovModulatedArrivals:
    """Two-state MMPP: bursty arrivals with the same long-run rate.

    The process alternates between a calm and a burst state with
    exponentially distributed dwell times; arrivals are Poisson at
    ``rate * calm_factor`` and ``rate * burst_factor`` respectively.
    Online services exhibit exactly this burstiness, and it is what
    breaks timeout settings calibrated at a steady low rate
    (Section 5.2's dynaSprint discussion).
    """

    rate: float
    burst_factor: float = 4.0
    burst_fraction: float = 0.2
    mean_dwell: float = 10.0  # mean state dwell time in service-time units

    def __post_init__(self) -> None:
        check_positive("rate", self.rate)
        if self.burst_factor <= 1.0:
            raise ValueError("burst_factor must be > 1")
        if not 0 < self.burst_fraction < 1:
            raise ValueError("burst_fraction must be in (0, 1)")
        check_positive("mean_dwell", self.mean_dwell)

    @property
    def calm_factor(self) -> float:
        """Calm-state rate multiplier keeping the long-run rate at ``rate``."""
        return (1.0 - self.burst_factor * self.burst_fraction) / (
            1.0 - self.burst_fraction
        )

    def sample(self, n: int, rng=None) -> np.ndarray:
        calm = self.calm_factor
        if calm <= 0:
            raise ValueError(
                "burst_factor x burst_fraction too large: calm rate would be <= 0"
            )
        rng = as_rng(rng)
        out = np.empty(n)
        t = 0.0
        i = 0
        # Dwell times chosen so the long-run burst-state fraction matches.
        dwell_burst = self.mean_dwell * self.burst_fraction * 2
        dwell_calm = self.mean_dwell * (1 - self.burst_fraction) * 2
        in_burst = rng.random() < self.burst_fraction
        state_end = t + rng.exponential(dwell_burst if in_burst else dwell_calm)
        while i < n:
            lam = self.rate * (self.burst_factor if in_burst else calm)
            gap = rng.exponential(1.0 / lam)
            if t + gap > state_end:
                t = state_end
                in_burst = not in_burst
                state_end = t + rng.exponential(
                    dwell_burst if in_burst else dwell_calm
                )
                continue
            t += gap
            out[i] = t
            i += 1
        return out
