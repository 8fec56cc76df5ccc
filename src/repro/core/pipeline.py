"""StacModel: the end-to-end short-term-allocation performance model.

Composes the three stages:

1. a :class:`~repro.core.profiler.Profiler` produces a profile dataset,
2. an :class:`~repro.core.ea_model.EAModel` learns effective cache
   allocation from it,
3. a :class:`~repro.core.rt_model.ResponseTimeModel` converts EA to
   response time.

Two prediction paths are offered:

- :meth:`predict_rows` scores held-out *profiled* rows (measured traces,
  hidden response times) — how Figure 6/7 evaluate accuracy;
- :meth:`predict_condition` scores *hypothetical* conditions with no
  measurements, synthesizing nominal traces from a queueing fixed point
  — how policy exploration works (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro._util import as_rng
from repro.cache.contention import SharedWayContention
from repro.core.ea import ideal_effective_allocation
from repro.core.ea_model import EAModel
from repro.core.profile_vec import (
    ProfileDataset,
    RuntimeCondition,
    dynamic_features,
    static_features,
)
from repro.core.rt_model import QueueFeedback, ResponseTimeModel
from repro.counters.events import synthesize_ticks
from repro.queueing.metrics import ResponseTimeSummary
from repro.testbed.machine import XeonSpec, default_machine
from repro.workloads.suite import get_workload


@dataclass
class ConditionPrediction:
    """Per-service outcome of one hypothetical-condition prediction.

    ``X_flat``/``traces`` are the final-iteration *nominal* model inputs
    (simulator-derived, no measurements) — exposed so competing models
    can be evaluated on identical information.
    """

    summaries: list[ResponseTimeSummary]
    effective_allocations: np.ndarray
    boost_fractions: np.ndarray
    X_flat: np.ndarray
    traces: np.ndarray


class StacModel:
    """Short-Term Allocation performance model (the paper's approach)."""

    def __init__(
        self,
        machine: XeonSpec | None = None,
        learner: str = "deep_forest",
        private_mb: float = 2.0,
        shared_mb: float = 2.0,
        trace_ticks: int = 20,
        sampling_hz: float = 1.0,
        n_servers: int = 2,
        n_iterations: int = 2,
        sim_queries: int = 4000,
        n_jobs: int = 1,
        forest_strategy: str = "exact",
        rng=None,
        **ea_params,
    ):
        """``n_jobs`` and ``forest_strategy`` plumb Stage 2 training
        parallelism / histogram split finding into the forest learners
        (deep_forest, cascade, random_forest; the rest ignore them).
        ``forest_strategy="exact"`` (default) keeps trees bit-identical
        to previous releases for every ``n_jobs``."""
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if forest_strategy not in ("exact", "hist"):
            raise ValueError(f"unknown forest_strategy {forest_strategy!r}")
        ea_params.setdefault("n_jobs", n_jobs)
        ea_params.setdefault("strategy", forest_strategy)
        self.machine = machine or default_machine()
        self.private_mb = private_mb
        self.shared_mb = shared_mb
        self.trace_ticks = trace_ticks
        self.sampling_hz = sampling_hz
        self.n_iterations = n_iterations
        self._rng = as_rng(rng)
        self.ea_model = EAModel(learner=learner, rng=self._rng, **ea_params)
        self.rt_model = ResponseTimeModel(
            n_servers=n_servers, n_queries=sim_queries, rng=self._rng
        )
        self._contention = SharedWayContention()

    # -- training --------------------------------------------------------------

    def fit(self, dataset: ProfileDataset) -> "StacModel":
        """Stage 2 training on a Stage 1 profile dataset.

        The nominal-trace synthesizer adopts the training traces' tick
        count so hypothetical-condition inputs match the fitted MGS.
        """
        if len(dataset) > 0:
            self.trace_ticks = int(dataset.traces.shape[2])
        with telemetry.span(
            "stage2.fit", n_rows=len(dataset), learner=self.ea_model.learner
        ):
            self.ea_model.fit(dataset)
        return self

    # -- evaluation on profiled rows ---------------------------------------------

    def predict_rows(self, dataset: ProfileDataset) -> dict[str, np.ndarray]:
        """Predict response time for profiled (held-out) rows.

        Returns dict with ``ea``, ``rt_mean`` and ``rt_p95`` arrays.
        """
        if len(dataset) == 0:
            raise ValueError("dataset is empty")
        with telemetry.span("stage2.predict_rows", n_rows=len(dataset)):
            ea = self.ea_model.predict_dataset(dataset)
        # Every row is an independent queue condition: simulate them all
        # through one batched kernel call (bit-identical to the serial
        # per-row loop this replaced).
        conds = []
        for i, row in enumerate(dataset.rows):
            c = row.condition
            spec = get_workload(row.service_name)
            conds.append(
                dict(
                    utilization=c.utilizations[row.service_idx],
                    timeout=c.timeouts[row.service_idx],
                    gross_increase=self._gross_increase(
                        len(c.workloads), row.service_idx
                    ),
                    effective_allocation=float(ea[i]),
                    service_cv=spec.service_cv,
                    mean_service_time=self._default_service_time(spec),
                )
            )
        with telemetry.span("stage3.simulate_rows", n_conditions=len(conds)):
            feedback = self.rt_model.simulate_many(conds)
        rt_mean = np.array([f.summary.mean for f in feedback])
        rt_p95 = np.array([f.summary.p95 for f in feedback])
        return {"ea": ea, "rt_mean": rt_mean, "rt_p95": rt_p95}

    def _default_service_time(self, spec) -> float:
        """Expected service time at the default (private) allocation on
        the normalized clock — below 1.0 when the private reservation
        exceeds the workload's baseline capacity."""
        mb = 1024 * 1024
        return float(
            spec.service_time(self.private_mb * mb) / spec.baseline_service_time
        )

    def _gross_increase(self, n_services: int, idx: int) -> float:
        """l_a'/l_a implied by the chain layout on this machine."""
        p = self.machine.mb_to_ways(self.private_mb)
        s = self.machine.mb_to_ways(self.shared_mb)
        if n_services == 1:
            return 1.0
        sides = 2 if 0 < idx < n_services - 1 else 1
        return (p + sides * s) / p

    # -- prediction for hypothetical conditions -----------------------------------

    @staticmethod
    def _chain_neighbor(n: int, idx: int) -> int | None:
        """The chain neighbour whose shared region ``idx`` borrows (the
        same convention the profiler uses)."""
        if n <= 1:
            return None
        return idx + 1 if idx < n - 1 else idx - 1

    def _boosted_capacity(self, specs, j: int, boost_fractions) -> float:
        """Expected LLC bytes for service ``j`` while it holds its boost,
        accounting for each adjacent sharer boosting concurrently."""
        mb = 1024 * 1024
        private = self.private_mb * mb
        shared = self.shared_mb * mb
        n = len(specs)
        adjacent = [k for k in (j - 1, j + 1) if 0 <= k < n]
        cap = private
        w_own = specs[j].fill_intensity(specs[j].baseline_capacity)
        for k in adjacent:
            pb = float(boost_fractions[k])
            w_k = specs[k].fill_intensity(specs[k].baseline_capacity)
            both = self._contention.effective_shared_ways(
                shared, np.array([w_own, w_k])
            )
            cap += (1 - pb) * shared + pb * both[0]
        return cap

    def _nominal_trace(
        self,
        specs: list,
        target: int,
        utils,
        boost_fractions: np.ndarray,
    ) -> np.ndarray:
        """Synthesize the expected counter trace for one service.

        Emits the (own, chain-neighbour) counter blocks the profiler
        records; boosted ticks are spread evenly through the window at
        each service's predicted boost fraction, with capacities
        accounting for concurrent sharers.
        """
        mb = 1024 * 1024
        private = self.private_mb * mb
        dt = 1.0 / self.sampling_hz
        neighbor = self._chain_neighbor(len(specs), target)
        order = [target] if neighbor is None else [target, neighbor]
        blocks = []
        for j in order:
            spec = specs[j]
            cap_boost = self._boosted_capacity(specs, j, boost_fractions)
            bf = float(boost_fractions[j])
            # Spread boosted ticks evenly (deterministic, seed-free).
            boosted_ticks = {
                int(round(k * self.trace_ticks / max(1, round(bf * self.trace_ticks))))
                for k in range(int(round(bf * self.trace_ticks)))
            }
            boosted = np.zeros(self.trace_ticks, dtype=bool)
            boosted[[t for t in boosted_ticks if t < self.trace_ticks]] = True
            cap = np.where(boosted, cap_boost, private)
            # One batched synthesis over the whole window instead of a
            # Python per-tick loop (noise-free, so bit-identical).
            ticks = synthesize_ticks(
                spec,
                capacity_bytes=cap,
                busy_fraction=float(utils[j]),
                boost_fraction=boosted.astype(float),
                dt=dt,
                ways_allocated=cap / self.machine.way_bytes,
                noise=0.0,
            )
            blocks.append(ticks.T)
        return np.vstack(blocks)

    def _init_eas(self, specs, grosses) -> np.ndarray:
        """Starting EAs for one condition's fixed point: the
        no-contention first-principles EA."""
        mb = 1024 * 1024
        return np.array(
            [
                ideal_effective_allocation(
                    spec, self.private_mb * mb, self.shared_mb * mb, gross
                )
                for spec, gross in zip(specs, grosses)
            ]
        )

    def _condition_round(self, condition, specs, grosses, feedback):
        """One fixed-point round's model inputs for one condition.

        Turns the services' queue feedback into the stacked static +
        dynamic feature rows and nominal traces the EA model consumes.
        """
        n = len(specs)
        boost_fracs = np.array([f.boost_fraction for f in feedback])
        X_flat, traces = [], []
        for i in range(n):
            # Chain-neighbour convention, matching the profiler.
            if n > 1:
                partner = i + 1 if i < n - 1 else i - 1
            else:
                partner = None
            xs = static_features(
                specs[i],
                condition.timeouts[i],
                condition.utilizations[i],
                grosses[i],
                partner=specs[partner] if partner is not None else None,
                partner_timeout=(
                    condition.timeouts[partner] if partner is not None else np.inf
                ),
                partner_util=(
                    condition.utilizations[partner]
                    if partner is not None
                    else 0.0
                ),
                partner_gross=grosses[partner] if partner is not None else 1.0,
            )
            # Little's law: mean queue length = lambda x mean wait.
            lam = condition.utilizations[i] * self.rt_model.n_servers
            partner_bf = (
                boost_fracs[partner] if partner is not None else 0.0
            )
            xd = dynamic_features(
                mean_queue_length=lam * feedback[i].mean_wait,
                own_boost_fraction=boost_fracs[i],
                partner_boost_fraction=partner_bf,
                # Independence estimate of concurrent boosting.
                concurrent_boost_fraction=boost_fracs[i] * partner_bf,
            )
            X_flat.append(np.concatenate([xs, xd]))
            traces.append(
                self._nominal_trace(
                    specs, i, condition.utilizations, boost_fracs
                )
            )
        return np.stack(X_flat), np.stack(traces)

    def predict_condition(
        self, condition: RuntimeCondition
    ) -> ConditionPrediction:
        """Predict response time for a hypothetical runtime condition.

        Runs the Stage 3 queueing simulator and Stage 2 EA model to a
        fixed point: the simulator's queue feedback shapes the dynamic
        features and nominal traces, whose EA predictions update the
        simulator's boosted rate.  (Thin wrapper over
        :meth:`predict_conditions` with a single condition.)
        """
        return self.predict_conditions([condition])[0]

    def predict_conditions(self, conditions) -> list[ConditionPrediction]:
        """Predict many hypothetical conditions in lockstep.

        Runs every condition's EA fixed point simultaneously, for
        ``n_iterations`` rounds, so that each round simulates all
        collocated services of all conditions in one
        :meth:`ResponseTimeModel.simulate_many` call.  Conditions are
        mutually independent, so each result is bit-identical to a
        standalone :meth:`predict_condition` call.  Service counts may
        differ between conditions.
        """
        conditions = list(conditions)
        specs_per = [
            [get_workload(n) for n in cond.workloads] for cond in conditions
        ]
        grosses_per = [
            [self._gross_increase(len(specs), i) for i in range(len(specs))]
            for specs in specs_per
        ]
        eas_per = [
            self._init_eas(specs, grosses)
            for specs, grosses in zip(specs_per, grosses_per)
        ]
        feedback_per: list[list[QueueFeedback]] = [None] * len(conditions)
        X_per: list[np.ndarray] = [None] * len(conditions)
        traces_per: list[np.ndarray] = [None] * len(conditions)
        with telemetry.span(
            "stage3.fixed_point",
            n_conditions=len(conditions),
            rounds=self.n_iterations,
        ):
            for it in range(self.n_iterations):
                with telemetry.span("stage3.fixed_point.round", round=it):
                    sim_conds = []
                    for cond, specs, grosses, eas in zip(
                        conditions, specs_per, grosses_per, eas_per
                    ):
                        for i in range(len(specs)):
                            sim_conds.append(
                                dict(
                                    utilization=cond.utilizations[i],
                                    timeout=cond.timeouts[i],
                                    gross_increase=grosses[i],
                                    effective_allocation=float(eas[i]),
                                    service_cv=specs[i].service_cv,
                                    mean_service_time=self._default_service_time(
                                        specs[i]
                                    ),
                                )
                            )
                    all_feedback = self.rt_model.simulate_many(sim_conds)
                    pos = 0
                    for ci, specs in enumerate(specs_per):
                        n = len(specs)
                        feedback_per[ci] = all_feedback[pos : pos + n]
                        pos += n
                        X_per[ci], traces_per[ci] = self._condition_round(
                            conditions[ci], specs, grosses_per[ci],
                            feedback_per[ci],
                        )
                        # One EA-model call per condition — identical input
                        # stacking to a standalone call, so identical
                        # predictions for every learner.
                        eas_per[ci] = self.ea_model.predict(
                            X_per[ci], traces_per[ci]
                        )
        telemetry.counter_inc("stage3.conditions_predicted", len(conditions))
        return [
            ConditionPrediction(
                summaries=[f.summary for f in feedback_per[ci]],
                effective_allocations=eas_per[ci],
                boost_fractions=np.array(
                    [f.boost_fraction for f in feedback_per[ci]]
                ),
                X_flat=X_per[ci],
                traces=traces_per[ci],
            )
            for ci in range(len(conditions))
        ]
