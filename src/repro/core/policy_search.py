"""Model-driven timeout-vector exploration (Section 5.2).

The model predicts response time for every combination of candidate
timeouts (the paper explores 5 settings per workload, 25 combinations
per pair) and the SLO-driven matching policy picks a vector that is
near-optimal for *every* collocated service simultaneously.

All combinations are predicted in one lockstep
(:meth:`StacModel.predict_conditions`), so every fixed-point round is a
single :meth:`~repro.core.rt_model.ResponseTimeModel.simulate_many`
call over the whole grid.  The simulator is seeded per model instance
and shares one arrival/demand sample across the grid, so each row of
the result equals predicting that combination on its own.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro import telemetry
from repro.baselines.policies import PolicyDecision
from repro.core.pipeline import StacModel
from repro.core.profile_vec import RuntimeCondition

#: The default candidate grid: 5 settings spanning "always share" to
#: "rarely boost" (Table 2's 0%-600% timeout range).
DEFAULT_TIMEOUT_GRID: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0, 4.0)

#: Statistics :func:`explore_timeouts` can rank combinations by.
_STATISTICS = ("mean", "p50", "p95", "p99")


def slo_matching(
    rt_matrix: np.ndarray, tolerance: float = 0.05
) -> int:
    """Pick the combination satisfying the paper's two-step policy.

    Step 1: for each service, mark combinations whose predicted response
    time is within ``tolerance`` of that service's best.  Step 2: choose
    a combination marked by *every* service; when the intersection is
    empty the tolerance is relaxed geometrically until one exists (the
    minimax-regret combination wins ties).

    Parameters
    ----------
    rt_matrix:
        (n_combinations, n_services) predicted response times.
    tolerance:
        Relative slack over each service's best, ``>= 0``; ``inf``
        lets every combination qualify.
    """
    if not tolerance >= 0:
        raise ValueError("tolerance must be >= 0")
    rt = np.asarray(rt_matrix, dtype=float)
    if rt.ndim != 2 or rt.shape[0] == 0:
        raise ValueError("rt_matrix must be a non-empty 2-D array")
    if not np.all(np.isfinite(rt)):
        raise ValueError("response times must be finite")
    if np.any(rt <= 0):
        raise ValueError("response times must be positive")
    best = rt.min(axis=0)  # per-service optimum
    tol = tolerance
    for _ in range(32):
        ok = rt <= best * (1.0 + tol)
        candidates = np.nonzero(ok.all(axis=1))[0]
        if candidates.size:
            # Among candidates, minimize the worst relative regret.
            regret = (rt[candidates] / best).max(axis=1)
            return int(candidates[np.argmin(regret)])
        tol *= 2.0
    # Unreachable in practice; fall back to global minimax regret.
    return int(np.argmin((rt / best).max(axis=1)))


def _conditions(workloads, utilizations, combos) -> list[RuntimeCondition]:
    return [
        RuntimeCondition(
            workloads=workloads,
            utilizations=utilizations,
            timeouts=combo,
        )
        for combo in combos
    ]


def explore_timeouts(
    model: StacModel,
    workloads: tuple[str, ...],
    utilizations: tuple[float, ...],
    timeout_grid=DEFAULT_TIMEOUT_GRID,
    statistic: str = "p95",
) -> tuple[list[tuple[float, ...]], np.ndarray]:
    """Predict response times for every timeout combination.

    Returns the list of combinations and an (n_combos, n_services)
    matrix of the chosen response-time statistic.
    """
    if statistic not in _STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    grid = tuple(timeout_grid)
    if len(grid) == 0:
        raise ValueError("timeout_grid must not be empty")
    combos = list(itertools.product(grid, repeat=len(workloads)))
    with telemetry.span(
        "policy.explore_timeouts",
        n_combos=len(combos),
        statistic=statistic,
    ):
        preds = model.predict_conditions(
            _conditions(tuple(workloads), tuple(utilizations), combos)
        )
        rt = np.array(
            [[getattr(s, statistic) for s in p.summaries] for p in preds]
        )
    telemetry.counter_inc("policy.combos_evaluated", len(combos))
    return combos, rt


def model_driven_policy(
    model: StacModel,
    workloads: tuple[str, ...],
    utilizations: tuple[float, ...],
    timeout_grid=DEFAULT_TIMEOUT_GRID,
    tolerance: float = 0.05,
    statistic: str = "p95",
    name: str = "model-driven",
) -> PolicyDecision:
    """The paper's policy: explore with the model, match with the SLO rule."""
    combos, rt = explore_timeouts(
        model, workloads, utilizations, timeout_grid, statistic
    )
    chosen = slo_matching(rt, tolerance=tolerance)
    return PolicyDecision(name, combos[chosen])
