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

import functools
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
    chain_partner,
    chain_static_features,
    dynamic_features,
)
from repro.core.profiler import collocation
from repro.core.rt_model import ResponseTimeModel
from repro.counters.events import N_COUNTERS, synthesize_ticks
from repro.queueing.metrics import ResponseTimeSummary
from repro.testbed.collocation import CollocationConfig


@functools.cache
def _shared_split(contention, shared_bytes: float, spec, other) -> float:
    """Shared-region bytes ``spec`` keeps while ``other`` boosts into the
    same region concurrently.  It depends on the two workloads, not on
    the condition, so it is computed once per (workload, neighbour)."""
    w = np.array([s.fill_intensity(s.baseline_capacity) for s in (spec, other)])
    return contention.effective_shared_ways(shared_bytes, w)[0]


@dataclass
class ConditionPrediction:
    """Per-service outcome of one hypothetical-condition prediction.

    ``summaries`` come from the fixed point's last simulate, and
    ``effective_allocations`` are the EAs that simulate ran at.
    ``X_flat``/``traces`` are the *nominal* model inputs
    (simulator-derived, no measurements) built from that simulate's
    queue feedback — exposed so competing models can be evaluated on
    identical information.
    """

    summaries: list[ResponseTimeSummary]
    effective_allocations: np.ndarray
    X_flat: np.ndarray
    traces: np.ndarray


class StacModel:
    """Short-Term Allocation performance model (the paper's approach)."""

    def __init__(
        self,
        learner: str = "deep_forest",
        n_iterations: int = 2,
        sim_queries: int = 4000,
        n_jobs: int = 1,
        rng=None,
        **ea_params,
    ):
        """``n_jobs`` plumbs Stage 2 training parallelism into the
        forest learners (deep_forest, cascade, random_forest; the rest
        ignore it); trees are bit-identical for every ``n_jobs``.  The
        testbed layout is not an option: :meth:`fit` adopts it from the
        profile."""
        if n_iterations < 2:
            # Round 1 simulates the first-principles EA; the Stage 2
            # prediction it feeds back only takes effect in round 2.
            raise ValueError(f"n_iterations must be >= 2, got {n_iterations}")
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
        ea_params.setdefault("n_jobs", n_jobs)
        self.n_iterations = n_iterations
        # The testbed layout Stage 3 replays; fit takes both from the profile.
        self.machine = self.settings = None
        self._rng = as_rng(rng)
        self.ea_model = EAModel(learner=learner, rng=self._rng, **ea_params)
        self.rt_model = ResponseTimeModel(n_queries=sim_queries, rng=self._rng)
        self._contention = SharedWayContention()

    # -- training --------------------------------------------------------------

    def fit(self, dataset: ProfileDataset) -> "StacModel":
        """Stage 2 training on a Stage 1 profile dataset.

        Stage 3 then replays the layout the dataset was profiled on: the
        model keeps its ``machine`` (whose ``cores_per_service`` is the
        simulated server count) and its ``settings``, whose reservations,
        counter sampling rate and tick count shape the hypothetical-
        condition inputs as the fitted MGS saw them.  Rows whose traces
        do not have ``settings.trace_ticks`` ticks raise ``ValueError``.
        """
        self._check_ticks(dataset)
        with telemetry.span(
            "stage2.fit", n_rows=len(dataset), learner=self.ea_model.learner
        ):
            self.ea_model.fit(dataset)
        self.machine, self.settings = dataset.machine, dataset.settings
        self.rt_model.n_servers = self.machine.cores_per_service
        return self

    @staticmethod
    def _check_ticks(dataset: ProfileDataset) -> None:
        if len(dataset) == 0:
            raise ValueError("dataset is empty")
        ticks = {row.trace.shape[-1] for row in dataset.rows}
        if ticks != {dataset.settings.trace_ticks}:
            raise ValueError(
                f"dataset traces have {sorted(ticks)} ticks, its settings "
                f"trace_ticks={dataset.settings.trace_ticks}"
            )

    @staticmethod
    def _replayed(machine, settings) -> tuple:
        """The part of a layout Stage 3 replays.  ``n_queries``,
        ``n_windows``, ``counter_noise`` and ``warmup_fraction`` may
        differ between the profile a model is fitted on and the rows it
        scores."""
        return (
            machine,
            settings.private_mb,
            settings.shared_mb,
            settings.sampling_hz,
            settings.trace_ticks,
        )

    # -- evaluation on profiled rows ---------------------------------------------

    def predict_rows(self, dataset: ProfileDataset) -> dict[str, np.ndarray]:
        """Predict response time for profiled (held-out) rows.

        Returns dict with ``ea``, ``rt_mean`` and ``rt_p95`` arrays.  Rows
        profiled on another machine, reservation, sampling rate or tick
        count than the model was fitted on raise ``ValueError``.
        """
        self._check_fitted()
        self._check_ticks(dataset)
        given = self._replayed(dataset.machine, dataset.settings)
        fitted = self._replayed(self.machine, self.settings)
        if given != fitted:
            raise ValueError(f"dataset layout {given} differs from the fitted {fitted}")
        with telemetry.span("stage2.predict_rows", n_rows=len(dataset)):
            ea = self.ea_model.predict_dataset(dataset)
        # Every row is an independent queue condition: simulate them all
        # through one batched kernel call (bit-identical to the serial
        # per-row loop this replaced).
        conds = []
        for i, row in enumerate(dataset.rows):
            c, j = row.condition, row.service_idx
            cfg = self._layout(c)
            conds.append(
                dict(
                    utilization=c.utilizations[j],
                    timeout=c.timeouts[j],
                    gross_increase=cfg.gross_increase(j),
                    effective_allocation=float(ea[i]),
                    service_cv=cfg.services[j].workload.service_cv,
                    mean_service_time=self._default_service_time(cfg, j),
                )
            )
        with telemetry.span("stage3.simulate_rows", n_conditions=len(conds)):
            feedback = self.rt_model.simulate_many(conds)
        rt_mean = np.array([f.summary.mean for f in feedback])
        rt_p95 = np.array([f.summary.p95 for f in feedback])
        return {"ea": ea, "rt_mean": rt_mean, "rt_p95": rt_p95}

    def _check_fitted(self) -> None:
        if self.settings is None:
            raise RuntimeError("StacModel is not fitted")

    def _layout(self, condition: RuntimeCondition) -> CollocationConfig:
        """The testbed chain layout ``condition`` is profiled on (raises
        ``ValueError`` when the machine cannot lay it out)."""
        settings = self.settings
        return collocation(
            condition, self.machine, settings.private_mb, settings.shared_mb
        )

    @staticmethod
    def _default_service_time(cfg: CollocationConfig, i: int) -> float:
        """Expected service time of service ``i`` at its private
        allocation on the normalized clock (the testbed's
        ``1 / base_rate``) — below 1.0 when the reserved ways exceed the
        workload's baseline capacity."""
        spec = cfg.services[i].workload
        return float(spec.service_time(cfg.private_bytes) / spec.baseline_service_time)

    # -- prediction for hypothetical conditions -----------------------------------

    def _boosted_capacity(
        self, cfg: CollocationConfig, j: int, boost_fractions
    ) -> float:
        """Expected LLC bytes for service ``j`` while it holds its boost,
        accounting for each adjacent sharer boosting concurrently."""
        shared = cfg.shared_bytes
        cap = cfg.private_bytes
        spec = cfg.services[j].workload
        for k in (j - 1, j + 1):
            if 0 <= k < cfg.n_services:
                pb = float(boost_fractions[k])
                other = cfg.services[k].workload
                split = _shared_split(self._contention, shared, spec, other)
                cap += (1 - pb) * shared + pb * split
        return cap

    def _nominal_trace(self, layouts, boost_per) -> list[np.ndarray]:
        """Synthesize the expected counter traces of one fixed-point round.

        Takes every condition's layout and predicted boost fractions,
        and returns per condition the stacked
        ``(n_services, n_blocks * N_COUNTERS, trace_ticks)`` traces: the
        (own, chain-neighbour) counter blocks the profiler records, or the
        own block alone for a solo service.  Boosted ticks are spread
        evenly through the window at each service's boost fraction, with
        capacities accounting for concurrent sharers.

        Each (condition, service) block is synthesized once and serves
        both as that service's own block and as its neighbour's second
        block; ``synthesize_ticks`` runs once per distinct workload over
        the concatenated ticks of all its blocks (elementwise and
        noise-free, so bit-identical to one call per block).
        """
        if not layouts:
            return []
        n_ticks = self.settings.trace_ticks
        services = [svc for cfg in layouts for svc in cfg.services]
        specs = [svc.workload for svc in services]
        utils = np.array([svc.utilization for svc in services], dtype=float)
        boost = np.concatenate(boost_per)
        private = np.array([cfg.private_bytes for cfg in layouts for _ in cfg.services])
        cap_boost = np.array(
            [
                self._boosted_capacity(cfg, j, bfs)
                for cfg, bfs in zip(layouts, boost_per)
                for j in range(cfg.n_services)
            ]
        )
        # Spread boosted ticks evenly (deterministic, seed-free): block b
        # boosts ticks round(k * T / m) for k < m = round(bf * T).
        n_boosted = np.rint(boost * n_ticks).astype(np.intp)
        k = np.arange(n_ticks)
        tick = np.rint(k * n_ticks / np.maximum(n_boosted, 1)[:, None]).astype(np.intp)
        hit = (k < n_boosted[:, None]) & (tick < n_ticks)
        boosted = np.zeros((len(specs), n_ticks), dtype=bool)
        boosted[np.nonzero(hit)[0], tick[hit]] = True
        cap = np.where(boosted, cap_boost[:, None], private[:, None])

        blocks = np.empty((len(specs), N_COUNTERS, n_ticks))
        by_workload: dict[str, list[int]] = {}
        for b, spec in enumerate(specs):
            by_workload.setdefault(spec.name, []).append(b)
        for rows in by_workload.values():
            rows = np.array(rows)
            ticks = synthesize_ticks(
                specs[rows[0]],
                capacity_bytes=cap[rows].ravel(),
                busy_fraction=np.repeat(utils[rows], n_ticks),
                boost_fraction=boosted[rows].ravel().astype(float),
                dt=1.0 / self.settings.sampling_hz,
                ways_allocated=cap[rows].ravel() / self.machine.way_bytes,
                noise=0.0,
            )
            blocks[rows] = ticks.reshape(len(rows), n_ticks, N_COUNTERS).transpose(
                0, 2, 1
            )

        traces = []
        start = 0
        for cfg in layouts:
            n = cfg.n_services
            order = [[i] if n == 1 else [i, chain_partner(n, i)] for i in range(n)]
            stacked = blocks[start + np.array(order)]
            traces.append(stacked.reshape(n, -1, n_ticks))
            start += n
        return traces

    @staticmethod
    def _init_eas(cfg: CollocationConfig, grosses) -> np.ndarray:
        """Starting EAs for one condition's fixed point: the
        no-contention first-principles EA."""
        return np.array(
            [
                ideal_effective_allocation(
                    svc.workload, cfg.private_bytes, cfg.shared_bytes, gross
                )
                for svc, gross in zip(cfg.services, grosses)
            ]
        )

    def _feature_rows(self, condition, specs, grosses, feedback, boost_fracs):
        """One fixed-point round's stacked static + dynamic feature rows
        for one condition, from its services' queue feedback."""
        n = len(specs)
        X_flat = []
        for i in range(n):
            xs = chain_static_features(condition, specs, grosses, i)
            # Little's law: mean queue length = lambda x mean wait.
            lam = condition.utilizations[i] * self.rt_model.n_servers
            partner = chain_partner(n, i)
            partner_bf = boost_fracs[partner] if partner is not None else 0.0
            xd = dynamic_features(
                mean_queue_length=lam * feedback[i].mean_wait,
                own_boost_fraction=boost_fracs[i],
                partner_boost_fraction=partner_bf,
                # Independence estimate of concurrent boosting.
                concurrent_boost_fraction=boost_fracs[i] * partner_bf,
            )
            X_flat.append(np.concatenate([xs, xd]))
        return np.stack(X_flat)

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
        ``n_iterations`` rounds: round 1 simulates the first-principles
        EAs, and each later round first predicts EAs from the previous
        round's nominal inputs, then simulates them.  Every round
        simulates all collocated services of all conditions in one
        :meth:`ResponseTimeModel.simulate_many` call, then builds their
        nominal inputs (one :meth:`_nominal_trace` call, then the
        feature rows) from its feedback.  The loop ends on those inputs,
        so ``n_iterations`` rounds run ``n_iterations - 1`` EA predicts,
        and every returned field belongs to the last simulate.  After
        each EA update the gauge ``stage3.fixed_point.ea_residual``
        holds the largest EA change over all conditions.  Conditions are
        mutually independent, so each result is bit-identical to a
        standalone :meth:`predict_condition` call.  Service counts may
        differ between conditions.
        """
        self._check_fitted()
        if self.n_iterations < 1:
            raise ValueError(f"n_iterations must be >= 1, got {self.n_iterations}")
        conditions = list(conditions)
        layouts = [self._layout(cond) for cond in conditions]
        specs_per = [[svc.workload for svc in cfg.services] for cfg in layouts]
        grosses_per = [
            [cfg.gross_increase(i) for i in range(cfg.n_services)] for cfg in layouts
        ]
        eas_per = [
            self._init_eas(cfg, grosses) for cfg, grosses in zip(layouts, grosses_per)
        ]
        sim_base = [
            dict(
                utilization=cond.utilizations[i],
                timeout=cond.timeouts[i],
                gross_increase=grosses[i],
                service_cv=spec.service_cv,
                mean_service_time=self._default_service_time(cfg, i),
            )
            for cond, cfg, specs, grosses in zip(
                conditions, layouts, specs_per, grosses_per
            )
            for i, spec in enumerate(specs)
        ]
        offsets = np.cumsum([0] + [len(specs) for specs in specs_per])
        with telemetry.span(
            "stage3.fixed_point",
            n_conditions=len(conditions),
            rounds=self.n_iterations,
        ):
            for it in range(self.n_iterations):
                with telemetry.span("stage3.fixed_point.round", round=it):
                    if it:
                        # One EA-model call per condition — identical
                        # input stacking to a standalone call, so
                        # identical predictions for every learner.
                        with telemetry.span("stage3.fixed_point.ea_predict"):
                            new_eas = [
                                self.ea_model.predict(X, traces)
                                for X, traces in zip(X_per, traces_per)
                            ]
                        if telemetry.enabled():
                            telemetry.gauge_set(
                                "stage3.fixed_point.ea_residual",
                                max(
                                    (
                                        float(np.max(np.abs(new - old)))
                                        for new, old in zip(new_eas, eas_per)
                                    ),
                                    default=0.0,
                                ),
                            )
                        eas_per = new_eas
                    eas = [float(ea) for group in eas_per for ea in group]
                    with telemetry.span(
                        "stage3.fixed_point.simulate", n_conditions=len(eas)
                    ):
                        all_feedback = self.rt_model.simulate_many(
                            [
                                dict(base, effective_allocation=ea)
                                for base, ea in zip(sim_base, eas)
                            ]
                        )
                    feedback_per = [
                        all_feedback[a:b] for a, b in zip(offsets, offsets[1:])
                    ]
                    boost_per = [
                        np.array([f.boost_fraction for f in feedback])
                        for feedback in feedback_per
                    ]
                    with telemetry.span("stage3.fixed_point.nominal_trace"):
                        traces_per = self._nominal_trace(layouts, boost_per)
                    X_per = [
                        self._feature_rows(*args)
                        for args in zip(
                            conditions, specs_per, grosses_per, feedback_per,
                            boost_per,
                        )
                    ]
        telemetry.counter_inc("stage3.conditions_predicted", len(conditions))
        return [
            ConditionPrediction(
                summaries=[f.summary for f in feedback_per[ci]],
                effective_allocations=eas_per[ci],
                X_flat=X_per[ci],
                traces=traces_per[ci],
            )
            for ci in range(len(conditions))
        ]
