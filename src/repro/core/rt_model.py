"""Stage 3: effective cache allocation -> response time via queueing.

Wraps the G/G/k STAP simulator: given a service's runtime condition and
its (predicted) effective allocation, simulate the queue and report the
response-time distribution plus the dynamic-condition feedback (wait
times, boost fraction) that Stage 2 consumes in the fixed-point loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import as_rng
from repro.queueing.ggk import (
    StapQueueConfig,
    simulate_stap_queue,
    simulate_stap_queue_batch,
)
from repro.queueing.metrics import ResponseTimeSummary, summarize_response_times

#: Below this many conditions a batched kernel call is slower than one
#: serial kernel call per condition (the batch inner loop is
#: ufunc-dispatch bound, costing roughly the same per query whether it
#: carries 2 conditions or 50), so :meth:`ResponseTimeModel.simulate_many`
#: picks the serial kernel.  Both kernels are bit-identical per
#: condition; the threshold is purely a performance crossover.
_MIN_BATCH_CONDITIONS = 8

#: Keys of one :meth:`ResponseTimeModel.simulate_many` condition.
_REQUIRED_KEYS = frozenset(
    ("utilization", "timeout", "gross_increase", "effective_allocation")
)
_OPTIONAL_KEYS = {"service_cv": 0.35, "mean_service_time": 1.0}


def _check_condition(cond) -> dict:
    """One condition mapping, with defaults filled in and values checked.

    Non-finite values fail loudly here: a NaN that slips past a range
    check (``nan <= 0`` is False) would otherwise poison the search.
    ``timeout=inf`` is legal (it disables short-term allocation).
    """
    cond = dict(cond)
    unknown = cond.keys() - _REQUIRED_KEYS - _OPTIONAL_KEYS.keys()
    if unknown:
        raise TypeError(f"unknown condition keys {sorted(unknown)}")
    missing = _REQUIRED_KEYS - cond.keys()
    if missing:
        raise TypeError(f"missing condition keys {sorted(missing)}")
    cond = {**_OPTIONAL_KEYS, **cond}
    for key in ("utilization", "effective_allocation", "gross_increase",
                "mean_service_time", "service_cv"):
        if not np.isfinite(cond[key]):
            raise ValueError(f"{key} must be finite, got {cond[key]!r}")
    if np.isnan(cond["timeout"]):
        raise ValueError("timeout must not be NaN")
    if not 0 < cond["utilization"] < 1:
        raise ValueError("utilization must be in (0, 1)")
    if cond["effective_allocation"] <= 0:
        raise ValueError("effective_allocation must be > 0")
    if cond["mean_service_time"] <= 0:
        raise ValueError("mean_service_time must be > 0")
    return cond


@dataclass(frozen=True)
class QueueFeedback:
    """Dynamic-condition outputs of one simulated queue."""

    summary: ResponseTimeSummary
    mean_wait: float
    p95_wait: float
    boost_fraction: float


class ResponseTimeModel:
    """First-principles response-time predictor (normalized units)."""

    def __init__(
        self,
        n_servers: int = 2,
        n_queries: int = 4000,
        warmup_fraction: float = 0.1,
        rng=None,
    ):
        if n_servers < 1 or n_queries < 10:
            raise ValueError("need n_servers >= 1 and n_queries >= 10")
        self.n_servers = n_servers
        self.n_queries = n_queries
        self.warmup_fraction = warmup_fraction
        self._rng = as_rng(rng)
        self._seed = int(self._rng.integers(0, 2**31))
        self._base_samples: tuple[np.ndarray, np.ndarray] | None = None

    def _base(self) -> tuple[np.ndarray, np.ndarray]:
        """The shared unit-scale random draws behind every simulation.

        Because the predictor is seeded once, every condition reuses the
        same standard-exponential inter-arrival gaps and standard-normal
        demand variates; :meth:`simulate_many` only rescales them.  Policy
        exploration therefore shares one arrival/demand sample across
        all timeout combinations instead of regenerating it per combo,
        and the rescaling is bit-identical to drawing
        ``rng.exponential(1/rate)`` / ``rng.lognormal(...)`` afresh.
        """
        if self._base_samples is None:
            rng = np.random.default_rng(self._seed)
            self._base_samples = (
                rng.standard_exponential(self.n_queries),
                rng.standard_normal(self.n_queries),
            )
        return self._base_samples

    def simulate(
        self,
        utilization: float,
        timeout: float,
        gross_increase: float,
        effective_allocation: float,
        service_cv: float = 0.35,
        mean_service_time: float = 1.0,
    ) -> QueueFeedback:
        """One G/G/k run under the given condition and EA.

        The boosted processing rate inverts Eq. 3: EA times the gross
        allocation increase.  ``mean_service_time`` is the expected
        service time at the *default* allocation on the normalized
        clock — below 1.0 when the private reservation exceeds the
        workload's baseline capacity.
        """
        return self.simulate_many(
            [
                dict(
                    utilization=utilization,
                    timeout=timeout,
                    gross_increase=gross_increase,
                    effective_allocation=effective_allocation,
                    service_cv=service_cv,
                    mean_service_time=mean_service_time,
                )
            ]
        )[0]

    def simulate_many(self, conditions) -> list[QueueFeedback]:
        """Simulate ``C`` conditions against the one shared sample.

        Each entry of ``conditions`` is a mapping of :meth:`simulate`
        keyword arguments (``utilization``, ``timeout``,
        ``gross_increase``, ``effective_allocation`` and optionally
        ``service_cv``, ``mean_service_time``); unknown or missing keys
        raise ``TypeError``, non-finite values ``ValueError``.  All
        conditions reuse the cached unit-scale draws, rescaled per
        condition, so each result depends only on its own condition.

        The kernel is picked by condition count: the serial kernel once
        per condition below ``_MIN_BATCH_CONDITIONS``, the batched kernel
        (one Python loop over queries for all conditions) from there up.
        The two are bit-identical, so the choice changes wall-clock only.
        """
        conds = [_check_condition(c) for c in conditions]
        if not conds:
            return []
        # Fixed seed: the predictor must be deterministic for a condition.
        # The unit-scale draws are cached (see _base) and rescaled here.
        gaps, normals = self._base()
        n_conditions = len(conds)
        arrivals = np.empty((n_conditions, self.n_queries))
        demands = np.empty((n_conditions, self.n_queries))
        configs = []
        for c, cond in enumerate(conds):
            mean_service_time = cond["mean_service_time"]
            service_cv = cond["service_cv"]
            rate = cond["utilization"] * self.n_servers / mean_service_time
            arrivals[c] = np.cumsum((1.0 / rate) * gaps)
            if service_cv > 0:
                sigma2 = np.log1p(service_cv**2)
                demands[c] = np.exp(-0.5 * sigma2 + np.sqrt(sigma2) * normals)
            else:
                demands[c] = 1.0
            boost_speedup = max(
                cond["effective_allocation"] * cond["gross_increase"], 0.1
            )
            configs.append(
                StapQueueConfig(
                    n_servers=self.n_servers,
                    mean_service_time=mean_service_time,
                    # Eq. 4 defines the warning relative to the *baseline*
                    # service time (1.0 on the normalized clock); rescale
                    # so warning_delay = timeout x 1.0 regardless of the
                    # default allocation's service time.
                    timeout=cond["timeout"] / mean_service_time,
                    boost_speedup=boost_speedup,
                )
            )
        if n_conditions < _MIN_BATCH_CONDITIONS:
            results = [
                simulate_stap_queue(arrivals[c], demands[c], cfg).drop_warmup(
                    self.warmup_fraction
                )
                for c, cfg in enumerate(configs)
            ]
        else:
            batch = simulate_stap_queue_batch(
                arrivals, demands, configs
            ).drop_warmup(self.warmup_fraction)
            results = [batch.condition(c) for c in range(n_conditions)]
        out = []
        for res in results:
            waits = res.wait_times
            out.append(
                QueueFeedback(
                    summary=summarize_response_times(res.response_times),
                    mean_wait=float(waits.mean()),
                    p95_wait=float(np.percentile(waits, 95)),
                    boost_fraction=res.boost_fraction,
                )
            )
        return out

    def predict_response_time(
        self,
        utilization: float,
        timeout: float,
        gross_increase: float,
        effective_allocation: float,
        service_cv: float = 0.35,
        mean_service_time: float = 1.0,
    ) -> ResponseTimeSummary:
        """Convenience wrapper returning only the summary."""
        return self.simulate(
            utilization,
            timeout,
            gross_increase,
            effective_allocation,
            service_cv,
            mean_service_time=mean_service_time,
        ).summary
