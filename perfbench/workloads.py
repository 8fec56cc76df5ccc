"""Benchmark workloads: seeded inputs, set-up, one timed operation, checks.

Each workload is a closed loop with a single caller: the runner issues
the next operation only after the previous one returns.  All inputs are
derived from the run's ``--seed``; the library receives only the
generated conditions, utilization vectors and integer seeds.

Library calls that the tracer wraps are looked up through their module
or class at call time (``policy_search.explore_timeouts``, methods of
``StacModel``), so the same code runs traced and untraced.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core import policy_search
from repro.core.pipeline import StacModel
from repro.core.profile_vec import ProfileDataset, RuntimeCondition
from repro.core.profiler import Profiler, ProfilerSettings
from repro.core.sampling import TIMEOUT_RANGE, UTIL_RANGE

#: Two Table 1 pairs with different cache behaviour.
PAIRS: tuple[tuple[str, str], ...] = (("redis", "knn"), ("jacobi", "bfs"))
#: A 3-service chain of workloads the pairs already profile.
CHAIN: tuple[str, ...] = ("redis", "knn", "jacobi")
GRID: tuple[float, ...] = tuple(policy_search.DEFAULT_TIMEOUT_GRID)


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark run.

    Profiling and the deep forest are scaled down from the library
    defaults so that set-up plus a measured run fits a per-run time
    budget; the forest's split strategy is left at the library default.
    """

    train_per_pair: int
    test_per_pair: int
    profile_queries: int
    sim_queries: int
    forest: tuple[tuple[str, int], ...]

    def settings(self) -> ProfilerSettings:
        return ProfilerSettings(n_queries=self.profile_queries)

    def model(self, seed: int) -> StacModel:
        return StacModel(rng=seed, sim_queries=self.sim_queries, **dict(self.forest))


SCALES: dict[str, Scale] = {
    "full": Scale(
        train_per_pair=4,
        test_per_pair=2,
        profile_queries=200,
        sim_queries=16000,
        forest=(("mgs_estimators", 4), ("mgs_max_instances", 600), ("n_estimators", 6)),
    ),
    # For the self-test only: every code path, a fraction of the work.
    "tiny": Scale(
        train_per_pair=1,
        test_per_pair=1,
        profile_queries=60,
        sim_queries=300,
        forest=(("mgs_estimators", 2), ("mgs_max_instances", 100), ("n_estimators", 2)),
    ),
}


# -- seeded inputs -----------------------------------------------------------


def _stream(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def _lib_seed(seed: int, *path: int) -> int:
    return int(_stream(seed, *path).integers(0, 2**31))


def _strata(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """(n, k) Latin-hypercube points in [0, 1): one per stratum per column."""
    ranks = np.argsort(rng.random((k, n)), axis=1).T
    return (ranks + rng.random((n, k))) / n


def campaign(n_per_pair: int, rng: np.random.Generator) -> list[RuntimeCondition]:
    """Table 2 conditions for every pair, Latin-hypercube stratified.

    Timeouts follow the library's uniform sampler: 75% of the mass in
    [0, 2) and the rest out to the top of the range.  Stratifying keeps
    the total work of a campaign nearly the same for every seed.
    """
    out = []
    for pair in PAIRS:
        k = len(pair)
        u = UTIL_RANGE[0] + _strata(rng, n_per_pair, k) * (UTIL_RANGE[1] - UTIL_RANGE[0])
        q = _strata(rng, n_per_pair, k)
        t = np.where(
            q < 0.75,
            q / 0.75 * 2.0,
            2.0 + (q - 0.75) / 0.25 * (TIMEOUT_RANGE[1] - 2.0),
        )
        out.extend(
            RuntimeCondition(
                workloads=pair,
                utilizations=tuple(float(x) for x in u[i]),
                timeouts=tuple(float(x) for x in t[i]),
            )
            for i in range(n_per_pair)
        )
    return out


# -- output checks -----------------------------------------------------------


class Outputs:
    """Correctness checks and a digest over one step's outputs.

    ``attempted`` counts operations (conditions profiled, rows
    predicted, plans, predictions); an operation fails when it raised
    or produced a non-finite, non-positive or out-of-grid output.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._hash = hashlib.sha256()

    def feed(self, *arrays) -> None:
        for a in arrays:
            self._hash.update(np.ascontiguousarray(a, dtype=float).tobytes())

    def item(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def digest(self) -> str:
        return self._hash.hexdigest()


def _positive(*arrays) -> bool:
    for a in arrays:
        a = np.asarray(a, dtype=float)
        if a.size == 0 or not np.all(np.isfinite(a)) or not np.all(a > 0):
            return False
    return True


def check_profile(out: Outputs, conditions, dataset: ProfileDataset) -> None:
    """One item per condition: it yields rows, all finite, targets positive."""
    by_condition: dict[int, list] = {id(c): [] for c in conditions}
    for row in dataset.rows:
        by_condition[id(row.condition)].append(row)
    for c in conditions:
        rows = by_condition[id(c)]
        out.item(
            bool(rows)
            and all(
                np.all(np.isfinite(np.concatenate([r.x_static, r.x_dynamic])))
                and np.all(np.isfinite(r.trace))
                and _positive([r.ea, r.rt_mean, r.rt_p95])
                for r in rows
            )
        )
    if len(dataset):
        out.feed(
            dataset.X_flat,
            dataset.traces,
            dataset.y_ea,
            dataset.y_rt_mean,
            dataset.y_rt_p95,
        )


def measured_means(dataset: ProfileDataset) -> dict:
    """Measured mean RT per (condition id, service index)."""
    rt = dataset.y_rt_mean
    return {key: float(rt[idx].mean()) for key, idx in dataset.condition_groups().items()}


def _ape(predicted: float, measured: float) -> float:
    return abs(predicted - measured) / measured


# -- workloads ---------------------------------------------------------------


@dataclass
class State:
    """What set-up hands the timed loop.

    ``phases`` holds set-up phase seconds (``profile_s``, ``fit_s``).
    """

    seed: int
    scale: Scale
    test: list[RuntimeCondition]
    test_data: ProfileDataset
    train: list[RuntimeCondition] | None = None
    train_data: ProfileDataset | None = None
    model: StacModel | None = None
    phases: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``setup`` builds the :class:`State`; ``op(state, i)`` is timed operation ``i`` and returns ``(raw
    outputs, phase seconds)``; ``check(state, i, raw)`` checks the raw
    outputs (``None`` when the operation raised) and returns them as
    :class:`Outputs` with their APE samples.
    ``first_pass(state)`` operations always run, even past the time
    budget: the accuracy metric and the output digest cover them.
    ``nominal_op_s`` sizes the traced run, whose operation count is
    fixed so that its counts repeat exactly.
    """

    name: str
    why: str
    loop: str
    setup: Callable[[int, Scale], State]
    op: Callable[[State, int], tuple]
    check: Callable[[State, int, object], tuple[Outputs, list]]
    first_pass: Callable[[State], int]
    nominal_op_s: float


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


# build: the held-out set is profiled in set-up; each operation profiles a
# fresh training campaign, fits and predicts the held-out rows.


def _build_setup(seed: int, scale: Scale) -> State:
    test = campaign(scale.test_per_pair, _stream(seed, 0))
    data = Profiler(settings=scale.settings(), rng=_lib_seed(seed, 1)).profile(test)
    return State(seed=seed, scale=scale, test=test, test_data=data)


def _build_op(state: State, i: int):
    scale = state.scale
    train = campaign(scale.train_per_pair, _stream(state.seed, 2, i))
    profiler = Profiler(settings=scale.settings(), rng=_lib_seed(state.seed, 3, i))
    data, profile_s = _timed(profiler.profile, train)
    model, fit_s = _timed(scale.model(_lib_seed(state.seed, 4, i)).fit, data)
    pred = model.predict_rows(state.test_data)
    return (train, data, pred), {"profile_s": profile_s, "fit_s": fit_s}


def _build_check(state: State, i: int, raw) -> tuple[Outputs, list]:
    out = Outputs()
    if raw is None:
        n_train = state.scale.train_per_pair * len(PAIRS)
        for _ in range(n_train + len(state.test_data)):
            out.item(False)
        return out, []
    train, data, pred = raw
    check_profile(out, train, data)
    for k in range(len(state.test_data)):
        out.item(_positive([pred["ea"][k], pred["rt_mean"][k], pred["rt_p95"][k]]))
    out.feed(pred["ea"], pred["rt_mean"], pred["rt_p95"])
    measured = measured_means(state.test_data)
    return out, [
        _ape(float(pred["rt_mean"][idx].mean()), measured[key])
        for key, idx in state.test_data.condition_groups().items()
    ]


# plan and whatif: one campaign profiled in set-up, split by condition, and
# a model fitted on the training share.


def _model_setup(seed: int, scale: Scale) -> State:
    train = campaign(scale.train_per_pair, _stream(seed, 2, 0))
    test = campaign(scale.test_per_pair, _stream(seed, 0))
    profiler = Profiler(settings=scale.settings(), rng=_lib_seed(seed, 1))
    data, profile_s = _timed(profiler.profile, train + test)
    held_out = {id(c) for c in test}
    test_data, train_data = data.split_by_condition(lambda c: id(c) in held_out)
    model, fit_s = _timed(scale.model(_lib_seed(seed, 4, 0)).fit, train_data)
    return State(
        seed=seed,
        scale=scale,
        test=test,
        test_data=test_data,
        train=train,
        train_data=train_data,
        model=model,
        phases={"profile_s": profile_s, "fit_s": fit_s},
    )


def check_setup(state: State) -> Outputs:
    """Checks and digest of the datasets set-up profiled."""
    out = Outputs()
    if state.train is not None:
        check_profile(out, state.train, state.train_data)
    check_profile(out, state.test, state.test_data)
    return out


def _plan_op(state: State, i: int):
    """Re-plan every collocation for a new utilization vector.

    ``explore_timeouts`` + ``slo_matching`` is what ``model_driven_policy``
    runs; calling the two directly keeps the rt matrix for the checks.
    """
    rng = _stream(state.seed, 5, i)
    plans, phases = [], {"plan_s": [], "chain_plan_s": []}
    for services in (*PAIRS, CHAIN):
        utils = tuple(float(u) for u in rng.uniform(*UTIL_RANGE, size=len(services)))
        t0 = time.perf_counter()
        combos, rt = policy_search.explore_timeouts(state.model, services, utils)
        chosen = combos[policy_search.slo_matching(rt)]
        seconds = time.perf_counter() - t0
        plans.append((services, rt, chosen))
        phases["chain_plan_s" if services == CHAIN else "plan_s"].append(seconds)
    return plans, phases


def _plan_check(state: State, i: int, raw) -> tuple[Outputs, list]:
    out = Outputs()
    if raw is None:
        for _ in range(len(PAIRS) + 1):
            out.item(False)
        return out, []
    for services, rt, chosen in raw:
        in_grid = len(chosen) == len(services) and all(t in GRID for t in chosen)
        shape_ok = rt.shape == (len(GRID) ** len(services), len(services))
        out.item(in_grid and shape_ok and _positive(rt))
        out.feed(rt, chosen)
    return out, []


def _whatif_op(state: State, i: int):
    condition = state.test[i % len(state.test)]
    return state.model.predict_condition(condition), {}


def _whatif_check(state: State, i: int, raw) -> tuple[Outputs, list]:
    out = Outputs()
    if raw is None:
        out.item(False)
        return out, []
    means = [s.mean for s in raw.summaries]
    p95s = [s.p95 for s in raw.summaries]
    out.item(_positive(means, p95s, raw.effective_allocations))
    out.feed(means, p95s, raw.effective_allocations)
    condition = state.test[i % len(state.test)]
    measured = measured_means(state.test_data)
    return out, [_ape(m, measured[(id(condition), k)]) for k, m in enumerate(means)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="build",
            why=(
                "offline model building: Stage 1 profiling and the Stage 2 "
                "forest fit do the work, the search layers none"
            ),
            loop=(
                "closed loop, one caller: each operation profiles a fresh "
                "training campaign, fits a StacModel and predicts the held-out rows"
            ),
            setup=_build_setup,
            op=_build_op,
            check=_build_check,
            first_pass=lambda state: 1,
            nominal_op_s=3.5,
        ),
        Workload(
            name="plan",
            why=(
                "online re-planning: batched queue kernel, EA predict and "
                "nominal traces over 25- and 125-combo grids"
            ),
            loop=(
                "closed loop, one caller: each operation re-plans two pairs "
                "(5x5 grid) and a 3-service chain (5^3 grid) for new utilizations"
            ),
            setup=_model_setup,
            op=_plan_op,
            check=_plan_check,
            first_pass=lambda state: 1,
            nominal_op_s=5.5,
        ),
        Workload(
            name="whatif",
            why=(
                "one hypothetical condition at a time: serial queue kernel and "
                "tiny EA batches; carries the accuracy check"
            ),
            loop=(
                "closed loop, one caller: each operation predicts one held-out "
                "condition with predict_condition, cycling through the test set"
            ),
            setup=_model_setup,
            op=_whatif_op,
            check=_whatif_check,
            first_pass=lambda state: len(state.test),
            nominal_op_s=0.08,
        ),
    )
}
