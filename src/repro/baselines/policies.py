"""Competing cache allocation policies (Figure 8).

Each policy produces a timeout vector (one per collocated service);
``numpy.inf`` means "never request short-term allocation" (private cache
only) and ``0.0`` means "always use the shared cache".
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.profile_vec import ProfileDataset, RuntimeCondition
from repro.core.profiler import run_condition
from repro.queueing.metrics import ResponseTimeSummary, summarize_response_times
from repro.workloads.suite import get_workload

#: Arrival rate at which dynaSprint calibrates each service's timeout.
CALIBRATION_UTILIZATION = 0.25


@dataclass(frozen=True)
class PolicyDecision:
    """A named timeout vector chosen by some policy."""

    name: str
    timeouts: tuple[float, ...]


class RuntimeEvaluator:
    """Evaluate timeout vectors on the ground-truth testbed.

    The testbed is laid out as ``profile`` was profiled: its machine,
    reservations and warmup, at ``n_queries`` queries per run.  A caller
    with no profile passes ``ProfileDataset()``, the layout
    ``Profiler()`` runs with.  Results are cached by condition and seed
    so policy searches and benchmark comparisons can share runs.
    """

    def __init__(
        self,
        profile: ProfileDataset,
        workloads: tuple[str, ...],
        utilization: float = 0.9,
        n_queries: int = 1500,
        rng: int = 0,
    ):
        if not 0 < utilization < 1:
            raise ValueError(f"utilization must be in (0, 1), got {utilization}")
        self.machine = profile.machine
        self.settings = replace(profile.settings, n_queries=n_queries)
        self.workloads = tuple(workloads)
        self.utilization = utilization
        self.rng = rng
        self._cache: dict = {}

    @property
    def n_services(self) -> int:
        return len(self.workloads)

    def evaluate(
        self, timeouts, utilization=None, seed=None
    ) -> list[ResponseTimeSummary]:
        """Per-service normalized response-time summaries for a vector,
        at one utilization for every service or one per service, on
        testbed seed ``seed`` (default: the evaluator's ``rng``)."""
        util = self.utilization if utilization is None else utilization
        utils = (util,) * self.n_services if np.ndim(util) == 0 else util
        condition = RuntimeCondition(
            self.workloads,
            tuple(float(u) for u in utils),
            tuple(float(t) for t in timeouts),
        )
        seed = self.rng if seed is None else seed
        key = (condition, seed)
        if key not in self._cache:
            run = run_condition(condition, self.machine, self.settings, seed)
            self._cache[key] = [
                summarize_response_times(s.response_times_norm) for s in run.services
            ]
        return self._cache[key]

    def p95(self, timeouts, utilization=None, seed=None) -> np.ndarray:
        return np.array(
            [s.p95 for s in self.evaluate(timeouts, utilization, seed)]
        )


def no_sharing_policy(n_services: int) -> PolicyDecision:
    """Baseline: every workload keeps to its private cache (Figure 8's
    normalization baseline)."""
    if n_services < 1:
        raise ValueError("n_services must be >= 1")
    return PolicyDecision("no-sharing", (np.inf,) * n_services)


def static_best_policy(evaluator: RuntimeEvaluator) -> PolicyDecision:
    """Static allocation: fully share (timeout 0) or fully private
    (timeout inf) — whichever yields the better mean p95."""
    n = evaluator.n_services
    share = (0.0,) * n
    private = (np.inf,) * n
    p_share = evaluator.p95(share).mean()
    p_priv = evaluator.p95(private).mean()
    if p_share <= p_priv:
        return PolicyDecision("static-share", share)
    return PolicyDecision("static-private", private)


def dcat_policy(
    evaluator: RuntimeEvaluator,
) -> PolicyDecision:
    """Workload-aware allocation (dCat [31]).

    Throughput-profiles each workload in isolation (fixed phases) and
    assigns the whole shared region to the workload with the greatest
    standalone speedup; the others keep only their private cache.
    """
    mb = 1024 * 1024
    settings = evaluator.settings
    private = settings.private_mb * mb
    boosted = (settings.private_mb + settings.shared_mb) * mb
    specs = [get_workload(name) for name in evaluator.workloads]
    speedups = [spec.speedup(boosted) / spec.speedup(private) for spec in specs]
    winner = int(np.argmax(speedups))
    timeouts = tuple(
        0.0 if i == winner else np.inf for i in range(evaluator.n_services)
    )
    return PolicyDecision("dcat", timeouts)


def dynasprint_policy(
    evaluator: RuntimeEvaluator,
    timeout_grid=(0.0, 0.5, 1.0, 1.5, 3.0),
) -> PolicyDecision:
    """IPC-driven dynamic allocation (dynaSprint [12]).

    Picks each service's timeout independently at a *low* arrival rate,
    :data:`CALIBRATION_UTILIZATION` (maximum standalone benefit, partner
    idle on private cache), then reuses those settings at the target
    rate — ignoring queueing delay, which is exactly the weakness
    Section 5.2 describes.
    """
    if len(timeout_grid) == 0:
        raise ValueError("timeout_grid must be non-empty")
    n = evaluator.n_services
    chosen = []
    for i in range(n):
        best_t, best_p95 = np.inf, np.inf
        for t in timeout_grid:
            timeouts = tuple(
                t if j == i else np.inf for j in range(n)
            )
            p95 = evaluator.p95(timeouts, utilization=CALIBRATION_UTILIZATION)[i]
            if p95 < best_p95:
                best_p95, best_t = p95, t
        chosen.append(best_t)
    return PolicyDecision("dynasprint", tuple(chosen))
