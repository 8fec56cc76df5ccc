"""Collocated discrete-event runtime: the ground-truth "machine".

Simulates N collocated services sharing a CAT-managed LLC.  Each service
has its own proxy queue and ``cores_per_service`` executors; execution
speed at any instant follows the workload's miss-ratio curve at its
*current effective LLC capacity*, which depends on which services hold
their short-term allocation and on shared-way contention between
concurrent boosts.

Time normalization
------------------
By default the runtime runs each service on a normalized clock where its
baseline service time is 1.0.  The paper defines every runtime condition
(arrival rate, timeout) relative to service time (Table 2), so the
dynamics the models must learn — boost overlap, contention, queueing
feedback — are preserved, while pairs with extreme service-time ratios
(Redis at 1 ms vs Spark k-means at 81 s) stay simulatable.  Reported
response times are de-normalized through each service's baseline service
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro._util import as_rng, spawn_rngs
from repro.cache.contention import SharedWayContention
from repro.queueing.events import EventLoop
from repro.testbed.collocation import CollocationConfig
from repro.testbed.proxy import ProxyService, QueryRecord
from repro.workloads.arrivals import MarkovModulatedArrivals, PoissonArrivals


@dataclass(frozen=True)
class SegmentTable:
    """A service's state snapshots as column arrays.

    Row ``i`` holds from ``time[i]`` until ``time[i + 1]`` (the last row
    holds forever): the effective LLC capacity in bytes, the queries in
    service and queued, and whether the service holds its short-term
    allocation.  Times are non-decreasing; equal times give zero-length
    segments.
    """

    time: np.ndarray
    capacity: np.ndarray
    n_in_service: np.ndarray
    n_queued: np.ndarray
    boosted: np.ndarray

    @classmethod
    def from_records(cls, records) -> "SegmentTable":
        """Columns of ``(time, capacity, n_in_service, n_queued, boosted)``
        tuples."""
        time, capacity, n_in, n_queued, boosted = zip(*records)
        return cls(
            time=np.array(time, dtype=float),
            capacity=np.array(capacity, dtype=float),
            n_in_service=np.array(n_in, dtype=np.int64),
            n_queued=np.array(n_queued, dtype=np.int64),
            boosted=np.array(boosted, dtype=bool),
        )

    def __iter__(self):
        """Rows as ``(time, capacity, n_in_service, n_queued, boosted)``."""
        return zip(
            self.time.tolist(),
            self.capacity.tolist(),
            self.n_in_service.tolist(),
            self.n_queued.tolist(),
            self.boosted.tolist(),
        )


@dataclass
class ServiceResult:
    """Per-service outcome of one collocated run."""

    name: str
    baseline_service_time: float
    gross_increase: float
    timeout: float
    utilization: float
    #: Processing rate at the private allocation, relative to the
    #: workload's baseline capacity (1.0 when private == baseline).
    base_rate: float
    arrival_times: np.ndarray
    start_times: np.ndarray
    completion_times: np.ndarray
    demands: np.ndarray
    boosted_time: np.ndarray
    overdue: np.ndarray
    #: State snapshots on the same normalized clock as the arrays above.
    segments: SegmentTable

    @property
    def n_queries(self) -> int:
        return int(self.arrival_times.size)

    @property
    def response_times(self) -> np.ndarray:
        """Response times in *seconds* (de-normalized)."""
        return (
            self.completion_times - self.arrival_times
        ) * self.baseline_service_time

    @property
    def response_times_norm(self) -> np.ndarray:
        """Response times relative to the baseline service time."""
        return self.completion_times - self.arrival_times

    @property
    def service_durations_norm(self) -> np.ndarray:
        return self.completion_times - self.start_times

    @property
    def boost_fraction(self) -> float:
        return float(self.overdue.mean()) if self.overdue.size else 0.0

    def effective_allocation(self) -> float:
        """Measured effective cache allocation (Eq. 3).

        Speedup is measured on the *boosted portion* of execution: the
        work completed while holding the short-term allocation divided
        by the time it took, i.e. the instantaneous boosted processing
        rate (unboosted execution runs at exactly the baseline rate, so
        it contributes no information about the allocation).  Normalized
        by the gross allocation increase per Eq. 3.  Low contention and
        high data reuse push the value toward 1; heavy contention drags
        it toward the 1/gross floor.  When the policy never triggers the
        neutral 1/gross is reported.
        """
        durations = self.service_durations_norm
        if durations.size == 0:
            return 1.0 / self.gross_increase
        boosted_time = float(self.boosted_time.sum())
        total_time = float(durations.sum())
        if boosted_time <= 1e-9 or total_time <= 0:
            return 1.0 / self.gross_increase
        total_work = float(self.demands.sum())  # work at baseline rate 1
        unboosted_time = total_time - boosted_time
        boosted_work = total_work - unboosted_time * self.base_rate
        rate = max(boosted_work / boosted_time, self.base_rate)
        # Eq. 3's speedup is boosted vs default-allocation service rate.
        return (rate / self.base_rate) / self.gross_increase

    def window_slices(self, n_windows: int) -> list[slice]:
        """Split the run into contiguous query windows (Section 3.1:
        long runs are split into multiple EA measurements)."""
        if n_windows < 1:
            raise ValueError("n_windows must be >= 1")
        n = self.n_queries
        edges = np.linspace(0, n, n_windows + 1, dtype=int)
        return [slice(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]

    def window_view(self, sl: slice) -> "ServiceResult":
        """A ServiceResult restricted to one window of queries."""
        return ServiceResult(
            name=self.name,
            baseline_service_time=self.baseline_service_time,
            gross_increase=self.gross_increase,
            timeout=self.timeout,
            utilization=self.utilization,
            base_rate=self.base_rate,
            arrival_times=self.arrival_times[sl],
            start_times=self.start_times[sl],
            completion_times=self.completion_times[sl],
            demands=self.demands[sl],
            boosted_time=self.boosted_time[sl],
            overdue=self.overdue[sl],
            segments=self.segments,
        )


@dataclass
class RunResult:
    """All services' outcomes plus run-level metadata."""

    services: list[ServiceResult]
    horizon: float
    config: CollocationConfig

    def service(self, name: str) -> ServiceResult:
        for s in self.services:
            if s.name == name:
                return s
        raise KeyError(f"no service named {name!r}")


class _LiveService:
    """Mutable simulation state for one service."""

    __slots__ = (
        "idx",
        "spec",
        "svc",
        "proxy",
        "policy",
        "rate",
        "boost_capacity_weight",
        "records",
        "segments",
        "capacity",
    )

    def __init__(self, idx, spec, svc, proxy, policy):
        self.idx = idx
        self.spec = spec
        self.svc = svc
        self.proxy = proxy
        self.policy = policy
        self.rate = 1.0
        self.records: list[QueryRecord] = []
        self.segments: list[tuple[float, float, int, int, bool]] = []
        self.capacity = 0.0


class CollocationRuntime:
    """Event-driven simulator for one collocation configuration."""

    def __init__(
        self,
        config: CollocationConfig,
        contention: SharedWayContention | None = None,
        rng=None,
    ):
        config.validate_conjectures()
        self.config = config
        self.contention = contention or SharedWayContention()
        self._rng = as_rng(rng)

    # -- capacity / rate model ---------------------------------------------

    def _capacities(self, live: list[_LiveService]) -> np.ndarray:
        """Effective LLC bytes per service given current boost states."""
        cfg = self.config
        caps = cfg.private_bytes_per_service.copy()
        shared = cfg.shared_bytes
        for i, j in cfg.shared_regions():
            bi = live[i].proxy.boosted
            bj = live[j].proxy.boosted
            if not (bi or bj):
                continue
            weights = np.array(
                [
                    live[i].boost_capacity_weight if bi else 0.0,
                    live[j].boost_capacity_weight if bj else 0.0,
                ]
            )
            share = self.contention.effective_shared_ways(shared, weights)
            caps[i] += share[0]
            caps[j] += share[1]
        return caps

    def _rate(self, ls: _LiveService, capacity: float) -> float:
        """Normalized processing rate: 1.0 at baseline capacity."""
        spec = ls.spec
        return spec.baseline_service_time / float(spec.service_time(capacity))

    # -- main loop -----------------------------------------------------------

    def run(self, n_queries: int = 600, warmup_fraction: float = 0.1) -> RunResult:
        """Simulate until every service completes ``n_queries`` queries.

        The first ``warmup_fraction`` of each service's queries are
        dropped from the returned per-query arrays (queue warm-up).
        """
        if n_queries < 1:
            raise ValueError("n_queries must be >= 1")
        cfg = self.config
        loop = EventLoop()
        rngs = spawn_rngs(self._rng, 2 * cfg.n_services)
        policies = cfg.policies()

        live: list[_LiveService] = []
        for i, (svc, pol) in enumerate(zip(cfg.services, policies)):
            spec = svc.workload
            proxy = ProxyService(
                spec.name,
                n_servers=cfg.machine.cores_per_service,
                warning_delay=1e18 if math.isinf(svc.timeout) else svc.timeout,
            )
            ls = _LiveService(i, spec, svc, proxy, pol)
            # Constant contention weight: fill pressure at baseline capacity.
            ls.boost_capacity_weight = spec.fill_intensity(spec.baseline_capacity)
            live.append(ls)

        # Pre-sample arrivals and demands on the normalized clock.
        arrival_lists = []
        for i, ls in enumerate(live):
            rate = ls.svc.utilization * cfg.machine.cores_per_service
            if ls.svc.arrival_process == "mmpp":
                proc = MarkovModulatedArrivals(
                    rate=rate,
                    burst_factor=ls.svc.burst_factor,
                    burst_fraction=ls.svc.burst_fraction,
                )
            else:
                proc = PoissonArrivals(rate)
            arrivals = proc.sample(n_queries, rng=rngs[2 * i])
            demands = ls.spec.sample_demands(n_queries, rng=rngs[2 * i + 1])
            arrival_lists.append((arrivals, demands))

        # Initial capacities and segment snapshots.
        caps = self._capacities(live)
        for ls in live:
            ls.capacity = caps[ls.idx]
            ls.rate = self._rate(ls, ls.capacity)
            ls.segments.append((0.0, ls.capacity, 0, 0, False))

        def snapshot(ls: _LiveService) -> None:
            ls.segments.append(
                (
                    loop.now,
                    ls.capacity,
                    len(ls.proxy.in_service),
                    ls.proxy.queue_length,
                    ls.proxy.boosted,
                )
            )

        def settle(ls: _LiveService) -> None:
            """Charge elapsed work to in-service queries at the old rate."""
            now = loop.now
            boosted = ls.proxy.boosted
            for q in ls.proxy.in_service.values():
                dt = now - q.last_update
                if dt > 0:
                    q.remaining -= dt * ls.rate
                    if boosted:
                        q.boosted_time += dt
                    q.last_update = now

        def schedule_completion(ls: _LiveService, q: QueryRecord) -> None:
            q.completion_token += 1
            token = q.completion_token
            eta = q.remaining / ls.rate if ls.rate > 0 else 1e18
            loop.schedule_in(max(eta, 0.0), lambda: complete(ls, q, token))

        def reschedule_all(ls: _LiveService) -> None:
            for q in list(ls.proxy.in_service.values()):
                schedule_completion(ls, q)

        def affected_by(i: int) -> set[int]:
            out = {i}
            for a, b in cfg.shared_regions():
                if a == i:
                    out.add(b)
                elif b == i:
                    out.add(a)
            return out

        def on_boost_change(origin: int) -> None:
            """Recompute capacities/rates for the origin and its sharers."""
            for j in affected_by(origin):
                settle(live[j])
            caps = self._capacities(live)
            for j in affected_by(origin):
                ls = live[j]
                ls.capacity = caps[j]
                new_rate = self._rate(ls, ls.capacity)
                if new_rate != ls.rate:
                    ls.rate = new_rate
                    reschedule_all(ls)
                snapshot(ls)

        def try_dispatch(ls: _LiveService) -> None:
            while True:
                q = ls.proxy.next_dispatch()
                if q is None:
                    return
                ls.proxy.start_query(q, loop.now)
                schedule_completion(ls, q)
                snapshot(ls)

        def complete(ls: _LiveService, q: QueryRecord, token: int) -> None:
            if q.completion_token != token or q.completed:
                return
            settle(ls)
            was_boosted = ls.proxy.boosted
            ls.proxy.finish_query(q, loop.now)
            if was_boosted and not ls.proxy.boosted:
                on_boost_change(ls.idx)
            else:
                snapshot(ls)
            try_dispatch(ls)

        def warn(ls: _LiveService, q: QueryRecord) -> None:
            if ls.proxy.mark_overdue(q):
                on_boost_change(ls.idx)

        def arrive(ls: _LiveService, q: QueryRecord) -> None:
            ls.proxy.enqueue(q)
            ls.records.append(q)
            if not math.isinf(ls.svc.timeout):
                loop.schedule(ls.proxy.warning_time(q), lambda: warn(ls, q))
            try_dispatch(ls)
            snapshot(ls)  # records queue growth when no server was free

        for ls, (arrivals, demands) in zip(live, arrival_lists):
            for k in range(n_queries):
                q = QueryRecord(
                    qid=k, arrival=float(arrivals[k]), work=float(demands[k])
                )
                loop.schedule(q.arrival, lambda ls=ls, q=q: arrive(ls, q))

        loop.run()

        results = []
        for ls in live:
            recs = sorted(ls.proxy.completed, key=lambda q: q.qid)
            skip = int(len(recs) * warmup_fraction)
            recs = recs[skip:]
            results.append(
                ServiceResult(
                    name=ls.spec.name,
                    baseline_service_time=ls.spec.baseline_service_time,
                    gross_increase=ls.policy.gross_increase,
                    timeout=ls.svc.timeout,
                    utilization=ls.svc.utilization,
                    base_rate=self._rate(
                        ls,
                        float(
                            cfg.private_bytes_per_service[ls.idx]
                        ),
                    ),
                    arrival_times=np.array([q.arrival for q in recs]),
                    start_times=np.array([q.start for q in recs]),
                    completion_times=np.array([q.completion for q in recs]),
                    demands=np.array([q.work for q in recs]),
                    boosted_time=np.array([q.boosted_time for q in recs]),
                    overdue=np.array([q.overdue for q in recs], dtype=bool),
                    segments=SegmentTable.from_records(ls.segments),
                )
            )
        return RunResult(services=results, horizon=loop.now, config=cfg)
