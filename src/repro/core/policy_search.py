"""Model-driven timeout-vector exploration (Section 5.2).

The model predicts response time for every combination of candidate
timeouts (the paper explores 5 settings per workload, 25 combinations
per pair) and the SLO-driven matching policy picks a vector that is
near-optimal for *every* collocated service simultaneously.

The exploration is embarrassingly parallel across combinations, so
:func:`explore_timeouts` follows the :class:`~repro.core.profiler.Profiler`
precedent and fans out over a process pool when ``n_jobs > 1``.  Two
properties keep parallel and serial searches bit-identical:

- the response-time simulator is seeded per model instance, so every
  combination's prediction is a pure function of (model, combination) —
  deterministic regardless of which worker runs it or in what order;
- one arrival/demand sample is shared across the whole exploration
  (cached inside :class:`~repro.core.rt_model.ResponseTimeModel`)
  instead of being regenerated per combo.

Each worker predicts its combinations in one lockstep
(:meth:`StacModel.predict_conditions`), so every fixed-point round is a
single :meth:`~repro.core.rt_model.ResponseTimeModel.simulate_many`
call; and work is distributed as contiguous *chunks* of combinations,
so the pickled model crosses each process boundary once per worker.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor

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
    """
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


def _predict_chunk(args) -> tuple[np.ndarray, dict | None]:
    """Worker: predict a chunk of consecutive grid combinations.

    Whole chunks are the unit of work distribution, so the (pickled)
    model crosses the process boundary once per chunk.  Every
    combination is independent, and the chunk is predicted as one
    lockstep (:meth:`StacModel.predict_conditions`).

    Returns ``(rt_matrix, telemetry_snapshot)``.  The snapshot is
    ``None`` unless ``collect_telemetry`` is set, which pool workers use
    to ship an isolated child registry/span-log/event-sink back for the
    parent to merge (pure observation riding the existing result
    channel: seeding and chunk order are untouched).
    """
    (model, workloads, utilizations, combos, statistic,
     collect_telemetry, trace_queue_events) = args
    if collect_telemetry:
        # Fresh worker-local state: fork-started pools inherit the
        # parent's telemetry objects, and mutating those in a child
        # would be lost — and snapshotting them would double-count the
        # parent's own records.
        telemetry.begin_worker(trace_queue_events=trace_queue_events)
    with telemetry.span("policy.chunk", n_combos=len(combos)):
        preds = model.predict_conditions(
            _conditions(workloads, utilizations, combos)
        )
        rt = np.array(
            [[getattr(s, statistic) for s in p.summaries] for p in preds]
        )
    telemetry.counter_inc("policy.combos_evaluated", len(combos))
    if collect_telemetry:
        snap = telemetry.worker_snapshot()
        telemetry.disable()
        return rt, snap
    return rt, None


def explore_timeouts(
    model: StacModel,
    workloads: tuple[str, ...],
    utilizations: tuple[float, ...],
    timeout_grid=DEFAULT_TIMEOUT_GRID,
    statistic: str = "p95",
    n_jobs: int = 1,
) -> tuple[list[tuple[float, ...]], np.ndarray]:
    """Predict response times for every timeout combination.

    Returns the list of combinations and an (n_combos, n_services)
    matrix of the chosen response-time statistic.

    Parameters
    ----------
    n_jobs:
        Worker processes to fan the exploration out over.  Results are
        bit-identical for every ``n_jobs`` (see the module docstring);
        1 keeps everything in-process.
    """
    if statistic not in _STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    grid = tuple(timeout_grid)
    if len(grid) == 0:
        raise ValueError("timeout_grid must not be empty")
    combos = list(itertools.product(grid, repeat=len(workloads)))
    # Contiguous chunks of combos, one per worker: the model is pickled
    # once per chunk.
    n_chunks = min(n_jobs, len(combos))
    bounds = np.linspace(0, len(combos), n_chunks + 1).astype(int)
    chunks = [combos[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    # Pool workers collect into isolated child telemetry states and
    # ship snapshots back with their results; the in-process path
    # records straight into the parent state (collect stays False).
    pooled = len(chunks) > 1
    collect = telemetry.enabled() and pooled
    trace_q = collect and telemetry.queue_sink() is not None
    jobs = [
        (model, tuple(workloads), tuple(utilizations), chunk, statistic,
         collect, trace_q)
        for chunk in chunks
    ]
    with telemetry.span(
        "policy.explore_timeouts",
        n_combos=len(combos),
        n_jobs=n_jobs,
        statistic=statistic,
    ):
        if pooled:
            with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
                results = list(pool.map(_predict_chunk, jobs))
        else:
            results = [_predict_chunk(job) for job in jobs]
        parts = []
        for w, (rt, snap) in enumerate(results):
            parts.append(rt)
            telemetry.merge_worker(snap, worker=f"explore-{w}")
    return combos, np.vstack(parts)


def model_driven_policy(
    model: StacModel,
    workloads: tuple[str, ...],
    utilizations: tuple[float, ...],
    timeout_grid=DEFAULT_TIMEOUT_GRID,
    tolerance: float = 0.05,
    statistic: str = "p95",
    name: str = "model-driven",
    n_jobs: int = 1,
) -> PolicyDecision:
    """The paper's policy: explore with the model, match with the SLO rule.

    ``n_jobs`` fans :func:`explore_timeouts` out over worker processes;
    the chosen timeout vector is identical for every ``n_jobs``.
    """
    combos, rt = explore_timeouts(
        model, workloads, utilizations, timeout_grid, statistic, n_jobs=n_jobs
    )
    chosen = slo_matching(rt, tolerance=tolerance)
    return PolicyDecision(name, combos[chosen])
