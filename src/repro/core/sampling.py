"""Condition sampling: uniform random vs stratified (Section 4).

The first implementation used uniform random sampling, which
over-samples some settings.  Stratified sampling runs cheap seed
experiments, clusters them by measured effective cache allocation, and
generates new conditions near cluster centroids — covering the EA space
with ~3x fewer profiling runs.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng
from repro.analysis.clustering import KMeans
from repro.core.profile_vec import RuntimeCondition

#: Table 2 ranges.
UTIL_RANGE = (0.25, 0.95)
TIMEOUT_RANGE = (0.0, 6.0)


def _random_condition(pair, rng) -> RuntimeCondition:
    u = rng.uniform(*UTIL_RANGE, size=len(pair))
    # Timeouts above ~200% of service time rarely trigger (they encode
    # "(almost) never boost"), so sampling weights the active region:
    # 75% of draws in [0, 2), 25% covering the tail out to 600%.
    active = rng.random(len(pair)) < 0.75
    t = np.where(
        active,
        rng.uniform(TIMEOUT_RANGE[0], 2.0, size=len(pair)),
        rng.uniform(2.0, TIMEOUT_RANGE[1], size=len(pair)),
    )
    return RuntimeCondition(
        workloads=tuple(pair),
        utilizations=tuple(float(x) for x in u),
        timeouts=tuple(float(x) for x in t),
    )


def uniform_conditions(
    pair,
    n: int,
    rng=None,
) -> list[RuntimeCondition]:
    """Uniform random sampling over the Table 2 condition space."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_rng(rng)
    return [_random_condition(pair, rng) for _ in range(n)]


def grid_anchor_conditions(
    pair,
    utilization: float,
    timeout_grid=(0.0, 0.5, 1.0, 2.0, 4.0),
) -> list[RuntimeCondition]:
    """Conditions anchoring the corners of a policy-search grid.

    Random sampling rarely lands both services at extreme timeouts
    simultaneously, leaving exactly the settings a timeout search will
    evaluate (e.g. "everyone always shares") out of the training data.
    Since Stage 1 controls static conditions, profiling the grid's
    corner and diagonal points directly closes that coverage hole:
    all-minimum, all-maximum, the symmetric diagonal, and each service
    alone at the extremes.
    """
    if not 0 < utilization < 1:
        raise ValueError("utilization must be in (0, 1)")
    if len(timeout_grid) == 0:
        raise ValueError("timeout_grid must be non-empty")
    lo, hi = min(timeout_grid), max(timeout_grid)
    mid = sorted(timeout_grid)[len(timeout_grid) // 2]
    k = len(pair)
    vectors = {
        (lo,) * k,
        (hi,) * k,
        (mid,) * k,
    }
    for i in range(k):
        vectors.add(tuple(lo if j == i else hi for j in range(k)))
        vectors.add(tuple(hi if j == i else lo for j in range(k)))
    utils = (utilization,) * k
    return [
        RuntimeCondition(workloads=tuple(pair), utilizations=utils, timeouts=v)
        for v in sorted(vectors)
    ]


def _condition_params(c: RuntimeCondition) -> np.ndarray:
    return np.asarray(list(c.utilizations) + list(c.timeouts), dtype=float)


def stratified_conditions(
    pair,
    n: int,
    measure_ea,
    n_seeds: int | None = None,
    n_clusters: int = 4,
    pool_factor: int = 20,
    rng=None,
) -> list[RuntimeCondition]:
    """Stratified sampling driven by seed-experiment EA clustering.

    Seed experiments are clustered by measured effective cache
    allocation.  A large uniform candidate pool is then assigned to
    clusters via the nearest seed in condition space, and the remaining
    budget is drawn *balanced across clusters*, so every EA regime is
    represented regardless of how much of the condition space it covers.
    (Uniform sampling over-samples the large inactive regime — the
    problem Section 4 describes.)

    Parameters
    ----------
    pair:
        Workload names to collocate.
    n:
        Total conditions to return (seeds included).
    measure_ea:
        Callable ``condition -> array of per-service EA`` (cheap seed
        run, e.g. :meth:`Profiler.quick_ea`).
    n_seeds:
        Seed experiments to run (default: ``max(n_clusters, n // 3)``).
    n_clusters:
        Number of EA clusters.
    pool_factor:
        Candidate-pool size as a multiple of the remaining budget.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_rng(rng)
    n_seeds = n_seeds if n_seeds is not None else max(n_clusters, n // 3)
    n_seeds = min(n_seeds, n)
    seeds = [_random_condition(pair, rng) for _ in range(n_seeds)]
    if n_seeds == n:
        return seeds

    eas = np.stack([np.nan_to_num(measure_ea(c), nan=0.5) for c in seeds])
    k = min(n_clusters, len(seeds))
    km = KMeans(k=k, rng=rng).fit(eas)
    seed_labels = km.labels_

    # Map candidate conditions to EA clusters through the nearest seed
    # in (normalized) condition space.
    span = np.array(
        [UTIL_RANGE[1] - UTIL_RANGE[0]] * len(pair)
        + [TIMEOUT_RANGE[1] - TIMEOUT_RANGE[0]] * len(pair)
    )
    seed_params = np.stack([_condition_params(c) for c in seeds]) / span

    remaining = n - n_seeds
    pool = [_random_condition(pair, rng) for _ in range(pool_factor * remaining)]
    pool_params = np.stack([_condition_params(c) for c in pool]) / span
    nearest_seed = np.argmin(
        ((pool_params[:, None, :] - seed_params[None]) ** 2).sum(-1), axis=1
    )
    pool_labels = seed_labels[nearest_seed]

    # Draw the budget round-robin across clusters for balanced coverage.
    by_cluster = [
        [i for i in range(len(pool)) if pool_labels[i] == j] for j in range(k)
    ]
    for members in by_cluster:
        rng.shuffle(members)
    out = list(seeds)
    j = 0
    while len(out) < n:
        members = by_cluster[j % k]
        if members:
            out.append(pool[members.pop()])
        j += 1
        if j > k * (pool_factor * remaining + 1):  # pool exhausted
            out.append(_random_condition(pair, rng))
    return out
