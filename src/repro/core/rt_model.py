"""Stage 3: effective cache allocation -> response time via queueing.

Wraps the G/G/k STAP simulator: given a service's runtime condition and
its (predicted) effective allocation, simulate the queue and report the
response-time distribution plus the dynamic-condition feedback (wait
times, boost fraction) that Stage 2 consumes in the fixed-point loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro._util import as_rng
from repro._util.validation import check_count
from repro.queueing.ggk import (
    StapQueueConfig,
    batch_kernel_faster,
    simulate_stap_queue,
    simulate_stap_queue_batch,
)
from repro.queueing.metrics import ResponseTimeSummary, summarize_response_times

#: Leading fraction of each simulated run's queries dropped as the
#: transient warmup before any statistic is taken.
WARMUP_FRACTION = 0.1

#: Keys of one :meth:`ResponseTimeModel.simulate_many` condition.
_REQUIRED_KEYS = frozenset(
    ("utilization", "timeout", "gross_increase", "effective_allocation")
)
_OPTIONAL_KEYS = {"service_cv": 0.35, "mean_service_time": 1.0}
#: The order in which a checked condition's values form its identity.
_KEY_ORDER = tuple(sorted(_REQUIRED_KEYS | _OPTIONAL_KEYS.keys()))


def _check_condition(cond) -> dict:
    """One condition mapping, with defaults filled in and values checked.

    Values become Python floats, so a condition is simulated from the
    same numbers its identity in :meth:`ResponseTimeModel.simulate_many`
    is keyed by.  Non-finite values fail loudly here: a NaN that slips
    past a range check (``nan <= 0`` is False) would otherwise poison
    the search.  ``timeout=inf`` is legal (it disables short-term
    allocation).
    """
    cond = dict(cond)
    unknown = cond.keys() - _REQUIRED_KEYS - _OPTIONAL_KEYS.keys()
    if unknown:
        raise TypeError(f"unknown condition keys {sorted(unknown)}")
    missing = _REQUIRED_KEYS - cond.keys()
    if missing:
        raise TypeError(f"missing condition keys {sorted(missing)}")
    cond = {key: float(value) for key, value in {**_OPTIONAL_KEYS, **cond}.items()}
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
    if cond["gross_increase"] <= 0:
        raise ValueError("gross_increase must be > 0")
    if cond["service_cv"] < 0:
        raise ValueError("service_cv must be >= 0")
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
        rng=None,
    ):
        check_count("n_servers", n_servers, 1)
        check_count("n_queries", n_queries, 10)
        self.n_servers = n_servers
        self.n_queries = n_queries
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

        Each distinct condition is therefore simulated once, in order of
        first appearance, and its :class:`QueueFeedback` is returned at
        every position it appears in (the objects are frozen, so
        duplicates share one).  Conditions are identified by the exact
        bits of their six values (``float.hex``: 0.0 and -0.0 differ);
        the counter ``rt_model.duplicate_conditions`` records the
        conditions that were not simulated again.

        The batched kernel runs where
        :func:`~repro.queueing.ggk.batch_kernel_faster` says it beats
        the serial kernel for the distinct conditions (the measured
        crossover is in :mod:`repro.queueing.ggk`); otherwise the serial
        kernel runs once per condition.  The two are bit-identical, so
        the choice changes wall-clock only.
        """
        slots: dict[tuple, int] = {}
        conds = []
        index = []
        for cond in map(_check_condition, conditions):
            key = tuple(cond[k].hex() for k in _KEY_ORDER)
            if key not in slots:
                slots[key] = len(conds)
                conds.append(cond)
            index.append(slots[key])
        if not conds:
            return []
        telemetry.counter_inc(
            "rt_model.duplicate_conditions", len(index) - len(conds)
        )
        # Fixed seed: the predictor must be deterministic for a condition.
        # The unit-scale draws are cached (see _base) and rescaled here.
        gaps, normals = self._base()
        mean_service_time = np.array([c["mean_service_time"] for c in conds])
        utilization = np.array([c["utilization"] for c in conds])
        rate = utilization * self.n_servers / mean_service_time
        arrivals = np.cumsum((1.0 / rate)[:, None] * gaps, axis=1)
        # One demand row per distinct service CV, shared by its conditions.
        cvs = [c["service_cv"] for c in conds]
        rows = {}
        for service_cv in cvs:
            if service_cv not in rows:
                if service_cv > 0:
                    sigma2 = np.log1p(service_cv**2)
                    rows[service_cv] = np.exp(
                        -0.5 * sigma2 + np.sqrt(sigma2) * normals
                    )
                else:
                    rows[service_cv] = np.ones(self.n_queries)
        demands = np.stack([rows[cv] for cv in cvs])
        configs = [
            StapQueueConfig(
                n_servers=self.n_servers,
                mean_service_time=cond["mean_service_time"],
                # Eq. 4 defines the warning relative to the *baseline*
                # service time (1.0 on the normalized clock); rescale so
                # warning_delay = timeout x 1.0 regardless of the default
                # allocation's service time.
                timeout=cond["timeout"] / cond["mean_service_time"],
                boost_speedup=max(
                    cond["effective_allocation"] * cond["gross_increase"], 0.1
                ),
            )
            for cond in conds
        ]
        if batch_kernel_faster(len(conds), self.n_queries):
            batch = simulate_stap_queue_batch(arrivals, demands, configs)
            starts, completions, boosted = (
                batch.start_times, batch.completion_times, batch.boosted
            )
        else:
            runs = [
                simulate_stap_queue(arrivals[c], demands[c], cfg)
                for c, cfg in enumerate(configs)
            ]
            starts = np.stack([r.start_times for r in runs])
            completions = np.stack([r.completion_times for r in runs])
            boosted = np.stack([r.boosted for r in runs])
        # Drop the warmup queries: the statistics below read views of the
        # kernel's (C, n) outputs past the first ``warmup`` columns.
        warmup = int(self.n_queries * WARMUP_FRACTION)
        arrivals = arrivals[:, warmup:]
        response = completions[:, warmup:] - arrivals
        waits = starts[:, warmup:] - arrivals
        boosted = boosted[:, warmup:]
        summaries = summarize_response_times(response)
        mean_wait = waits.mean(axis=1).tolist()
        # ``waits`` is not read again, so the percentile may sort it in place.
        p95_wait = np.percentile(waits, 95, axis=1, overwrite_input=True).tolist()
        boost_fraction = boosted.mean(axis=1).tolist()
        feedback = [
            QueueFeedback(summary=s, mean_wait=m, p95_wait=p, boost_fraction=b)
            for s, m, p, b in zip(summaries, mean_wait, p95_wait, boost_fraction)
        ]
        return [feedback[i] for i in index]
