"""Model-driven timeout controller with plan caching.

Wraps :func:`repro.core.policy_search.model_driven_policy` for online
use: plans are cached per quantized utilization vector so repeated
epochs at similar load reuse the grid exploration instead of re-running
25 queueing simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.policies import PolicyDecision
from repro.core.pipeline import StacModel
from repro.core.policy_search import DEFAULT_TIMEOUT_GRID, model_driven_policy


@dataclass
class AdaptiveTimeoutController:
    """Recommend timeout vectors for observed utilizations.

    Parameters
    ----------
    model:
        A fitted :class:`StacModel`.
    workloads:
        Names of the collocated services, in chain order.
    timeout_grid:
        Candidate timeouts explored per service.
    utilization_quantum:
        Cache key resolution: utilizations are rounded to this quantum,
        bounding both cache size and plan churn.
    """

    model: StacModel
    workloads: tuple
    timeout_grid: tuple = DEFAULT_TIMEOUT_GRID
    utilization_quantum: float = 0.05
    _plans: dict = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if not 0 < self.utilization_quantum <= 0.5:
            raise ValueError("utilization_quantum must be in (0, 0.5]")
        if len(self.workloads) < 1:
            raise ValueError("need at least one workload")
        if len(self.timeout_grid) == 0:
            raise ValueError("timeout_grid must not be empty")

    def _key(self, utilizations) -> tuple:
        """Quantize utilizations to stable cache-bucket centres.

        Uses half-up rounding (``floor(x + 0.5)``) rather than
        ``np.round``: banker's rounding sends alternating bucket edges
        down/up (0.125 -> 0.10 but 0.175 -> 0.15 at quantum 0.05), which
        made nominally identical loads hit different plan-cache entries.
        The epsilon absorbs float-division jitter at exact edges so
        every midpoint rounds up consistently.
        """
        q = self.utilization_quantum
        out = []
        for u in utilizations:
            steps = math.floor(u / q + 0.5 + 1e-9)
            out.append(float(np.clip(round(steps * q, 12), 0.05, 0.95)))
        return tuple(out)

    def recommend(self, utilizations) -> PolicyDecision:
        """A timeout vector for the given per-service utilizations."""
        if len(utilizations) != len(self.workloads):
            raise ValueError("need one utilization per workload")
        if not all(math.isfinite(u) for u in utilizations):
            raise ValueError("utilizations must be finite")
        key = self._key(utilizations)
        if key not in self._plans:
            self._plans[key] = model_driven_policy(
                self.model,
                tuple(self.workloads),
                key,
                timeout_grid=self.timeout_grid,
                name="adaptive",
            )
        return self._plans[key]

    @property
    def plans_computed(self) -> int:
        """How many distinct plans the controller has built (cache size)."""
        return len(self._plans)
