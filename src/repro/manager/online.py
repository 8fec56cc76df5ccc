"""Epoch-based online management over drifting load.

A :class:`LoadScenario` describes how each service's offered load
evolves across epochs (e.g. a diurnal ramp).  The :class:`OnlineManager`
runs the collocation epoch by epoch on the ground-truth testbed; in
adaptive mode it re-plans the timeout vector before every epoch from the
current utilizations, in static mode it keeps the plan chosen for the
first epoch — the contrast that shows why dynaSprint-style one-shot
calibration degrades as load moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro._util import as_rng
from repro.baselines.policies import RuntimeEvaluator
from repro.manager.controller import AdaptiveTimeoutController


@dataclass(frozen=True)
class LoadScenario:
    """Per-epoch utilization vectors (one entry per collocated service)."""

    epochs: tuple

    def __post_init__(self) -> None:
        if len(self.epochs) == 0:
            raise ValueError("scenario needs at least one epoch")
        width = len(self.epochs[0])
        for e in self.epochs:
            if len(e) != width:
                raise ValueError("all epochs must cover the same services")
            if any(not 0 < u < 1 for u in e):
                raise ValueError("utilizations must be in (0, 1)")

    @property
    def n_epochs(self) -> int:
        return len(self.epochs)

    @property
    def n_services(self) -> int:
        return len(self.epochs[0])

    @classmethod
    def ramp(
        cls, n_services: int, start: float, end: float, n_epochs: int
    ) -> "LoadScenario":
        """Linear load ramp applied to every service."""
        if n_epochs < 1:
            raise ValueError("n_epochs must be >= 1")
        levels = np.linspace(start, end, n_epochs)
        return cls(tuple(tuple([float(u)] * n_services) for u in levels))

    @classmethod
    def diurnal(
        cls, n_services: int, low: float, high: float, n_epochs: int
    ) -> "LoadScenario":
        """Half-sine day/night pattern between ``low`` and ``high``."""
        if n_epochs < 1:
            raise ValueError("n_epochs must be >= 1")
        phase = np.sin(np.linspace(0, np.pi, n_epochs))
        levels = low + (high - low) * phase
        return cls(tuple(tuple([float(u)] * n_services) for u in levels))


@dataclass(frozen=True)
class EpochResult:
    """Outcome of one managed epoch."""

    epoch: int
    utilizations: tuple
    timeouts: tuple
    summaries: tuple  # per-service ResponseTimeSummary (normalized)

    @property
    def p95(self) -> np.ndarray:
        return np.array([s.p95 for s in self.summaries])

    @property
    def mean(self) -> np.ndarray:
        return np.array([s.mean for s in self.summaries])


class OnlineManager:
    """Run a managed collocation across a load scenario.

    Each epoch is one ``evaluator.evaluate`` call, at that epoch's
    utilizations and seed, so the manager's ground truth is the
    testbed layout of the profile the evaluator was built on.
    """

    def __init__(
        self, controller: AdaptiveTimeoutController, evaluator: RuntimeEvaluator
    ):
        if tuple(controller.workloads) != evaluator.workloads:
            raise ValueError(
                f"controller manages {tuple(controller.workloads)} but the "
                f"evaluator runs {evaluator.workloads}"
            )
        self.controller = controller
        self.evaluator = evaluator
        # Epoch seeds derive from one fixed spawn, not from live draws:
        # every run() on this manager then simulates the same ground
        # truth, so back-to-back adapt=True / adapt=False runs differ
        # only by policy, never by seed noise.
        self._epoch_seed_root = int(as_rng(evaluator.rng).integers(0, 2**31))

    def run(self, scenario: LoadScenario, adapt: bool = True) -> list[EpochResult]:
        """Manage the collocation across the scenario.

        ``adapt=True`` re-plans timeouts each epoch from that epoch's
        utilizations; ``adapt=False`` plans once for epoch 0 and keeps
        the vector (one-shot calibration).  Repeated runs on the same
        manager share per-epoch ground-truth seeds, so A/B comparisons
        across modes isolate the policy effect.
        """
        if scenario.n_services != len(self.controller.workloads):
            raise ValueError(
                "scenario width does not match the controller's workloads"
            )
        seeds = np.random.default_rng(self._epoch_seed_root).integers(
            0, 2**31, size=scenario.n_epochs
        )
        results = []
        static_plan = None
        for i, utils in enumerate(scenario.epochs):
            epoch_span = telemetry.span(
                "manager.epoch", epoch=i, adapt=adapt
            )
            with epoch_span:
                if adapt or static_plan is None:
                    with telemetry.span("manager.epoch.plan", epoch=i):
                        plan = self.controller.recommend(utils)
                    if static_plan is None:
                        static_plan = plan
                timeouts = plan.timeouts if adapt else static_plan.timeouts
                summaries = self.evaluator.evaluate(
                    timeouts, utils, seed=int(seeds[i])
                )
                result = EpochResult(
                    i, tuple(utils), tuple(timeouts), tuple(summaries)
                )
                epoch_span.set_attr("timeouts", [float(t) for t in timeouts])
                epoch_span.set_attr(
                    "mean_p95", float(np.mean(result.p95))
                )
            results.append(result)
            telemetry.counter_inc("manager.epochs")
            telemetry.histogram_observe(
                "manager.epoch_mean_p95",
                float(np.mean(result.p95)),
                edges=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
            )
        return results
