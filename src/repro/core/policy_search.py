"""Model-driven timeout-vector exploration (Section 5.2).

The model predicts response time for every combination of candidate
timeouts (the paper explores 5 settings per workload, 25 combinations
per pair) and the SLO-driven matching policy picks a vector that is
near-optimal for *every* collocated service simultaneously: the
minimax-regret combination, whose worst ratio of predicted response
time to that service's best is smallest.

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


def slo_matching(rt_matrix: np.ndarray) -> int:
    """Pick the combination that is near-optimal for every service.

    Each service's regret for a combination is its predicted response
    time over that service's best.  The pick minimizes the worst regret
    over all services (minimax regret); ties go to the first row.  This
    is the row the paper's two-step policy (mark each service's
    near-best combinations, then take one every service marked) lands
    on, since it lies inside every non-empty intersection.

    Parameters
    ----------
    rt_matrix:
        (n_combinations, n_services) predicted response times.
    """
    rt = np.asarray(rt_matrix, dtype=float)
    if rt.ndim != 2 or rt.shape[0] == 0:
        raise ValueError("rt_matrix must be a non-empty 2-D array")
    if not np.all(np.isfinite(rt)):
        raise ValueError("response times must be finite")
    if np.any(rt <= 0):
        raise ValueError("response times must be positive")
    return int(np.argmin((rt / rt.min(axis=0)).max(axis=1)))


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
) -> tuple[list[tuple[float, ...]], np.ndarray]:
    """Predict response times for every timeout combination.

    Returns the list of combinations and an (n_combos, n_services)
    matrix of predicted p95 response times, the statistic the search
    ranks by.
    """
    grid = tuple(timeout_grid)
    if len(grid) == 0:
        raise ValueError("timeout_grid must not be empty")
    combos = list(itertools.product(grid, repeat=len(workloads)))
    with telemetry.span("policy.explore_timeouts", n_combos=len(combos)):
        preds = model.predict_conditions(
            _conditions(tuple(workloads), tuple(utilizations), combos)
        )
        rt = np.array([[s.p95 for s in p.summaries] for p in preds])
    telemetry.counter_inc("policy.combos_evaluated", len(combos))
    return combos, rt


def model_driven_policy(
    model: StacModel,
    workloads: tuple[str, ...],
    utilizations: tuple[float, ...],
    timeout_grid=DEFAULT_TIMEOUT_GRID,
    name: str = "model-driven",
) -> PolicyDecision:
    """The paper's policy: explore with the model, match with the SLO rule."""
    combos, rt = explore_timeouts(model, workloads, utilizations, timeout_grid)
    chosen = slo_matching(rt)
    return PolicyDecision(name, combos[chosen])
