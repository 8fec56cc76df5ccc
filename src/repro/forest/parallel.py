"""Level-wide tree training, serial or across one process pool.

- **One data crossing per worker.**  Each forest's training arrays ride
  the pool initializer once per worker, and every job carries only
  ``(plan index, sample indices, seed)``.  Under ``fork``
  the workers inherit the arrays without pickling; under ``spawn`` or
  ``forkserver`` they are pickled once per worker, never once per tree.
- **Level-wide batching.**  :func:`fit_plans` accepts the fit plans of
  *many* forests — all trees of all forests of a cascade level
  (including every cross-fit fold model) or all MGS window forests —
  and drains them through a single process pool, so small forests no
  longer serialize behind each other.

Every tree job, serial or pooled, returns ``(tree, seconds)``; the
parent records the timings when telemetry is on.  Trees are fitted
from pre-drawn seeds (the parent consumes all RNG state while
planning), so results are bit-identical for every ``n_jobs``.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.forest.tree import RegressionTree

#: Worker-side state, set by the pool initializer: plan index ->
#: ``(X, y, tree_params)``.
_WORKER_DATASETS = None


@dataclass
class TreeFitPlan:
    """Everything needed to fit one forest's trees, RNG pre-drawn.

    Attributes
    ----------
    forest:
        Receives ``_finish_fit(trees, n_features)`` once all its trees
        are back (``None`` to just collect the trees).
    X, y:
        Training arrays, shared across the plan's trees.  These cross
        the process boundary once per worker.
    tree_params:
        :class:`~repro.forest.tree.RegressionTree` keyword arguments.
    jobs:
        One ``(sample_idx | None, seed)`` tuple per tree; ``None``
        means "all rows" (non-bootstrap forests).
    """

    forest: object
    X: np.ndarray
    y: np.ndarray
    tree_params: dict
    jobs: list


def _fit_tree(X, y, tree_params, sample_idx, seed) -> tuple[RegressionTree, float]:
    """Fit a single tree and time it; shared by the serial and pooled
    paths."""
    t0 = time.perf_counter()
    tree = RegressionTree(rng=seed, **tree_params)
    if sample_idx is None:
        tree.fit(X, y)
    else:
        tree.fit(X[sample_idx], y[sample_idx])
    return tree, time.perf_counter() - t0


def _pool_init(datasets) -> None:
    global _WORKER_DATASETS
    _WORKER_DATASETS = datasets


def _fit_tree_job(job) -> tuple[RegressionTree, float]:
    key, sample_idx, seed = job
    return _fit_tree(*_WORKER_DATASETS[key], sample_idx, seed)


def fit_plans(plans, n_jobs: int = 1) -> list:
    """Fit every tree of every plan, serially or across one pool.

    Jobs preserve planning order, and each tree is grown from its
    pre-drawn seed, so the fitted trees are bit-identical for every
    ``n_jobs``.  Returns the per-plan tree lists (also handed to each
    plan's forest via ``_finish_fit``).
    """
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    plans = list(plans)
    if not plans:
        return []
    flat = [
        (i, sample_idx, seed)
        for i, plan in enumerate(plans)
        for (sample_idx, seed) in plan.jobs
    ]
    with telemetry.span(
        "forest.fit_plans",
        n_plans=len(plans),
        n_trees=len(flat),
        n_jobs=n_jobs,
    ):
        if n_jobs > 1 and len(flat) > 1:
            fitted = _fit_pooled(plans, flat, n_jobs)
        else:
            fitted = [
                _fit_tree(
                    plans[i].X, plans[i].y, plans[i].tree_params, sample_idx, seed
                )
                for i, sample_idx, seed in flat
            ]
        if telemetry.enabled():
            for _, seconds in fitted:
                telemetry.histogram_observe("forest.tree_fit_seconds", seconds)
            telemetry.counter_inc("forest.trees_fitted", len(flat))
    trees = [tree for tree, _ in fitted]
    out = []
    pos = 0
    for plan in plans:
        chunk = trees[pos : pos + len(plan.jobs)]
        pos += len(plan.jobs)
        if plan.forest is not None:
            plan.forest._finish_fit(chunk, plan.X.shape[1])
        out.append(chunk)
    return out


def _fit_pooled(plans, flat, n_jobs) -> list:
    datasets = {
        i: (plan.X, plan.y, plan.tree_params) for i, plan in enumerate(plans)
    }
    chunksize = max(1, len(flat) // (4 * n_jobs))
    with ProcessPoolExecutor(
        max_workers=n_jobs, initializer=_pool_init, initargs=(datasets,)
    ) as pool:
        return list(pool.map(_fit_tree_job, flat, chunksize=chunksize))
