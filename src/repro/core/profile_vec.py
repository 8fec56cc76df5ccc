"""Profile vectors (Equation 2) and the profiling dataset container.

Each profile row describes one (runtime condition, window, target
service): static condition features, dynamic (measured or simulated)
features, the collocated counter trace, and the measured effective
cache allocation plus ground-truth response-time statistics.  A
dataset also records the testbed layout it was profiled on (the machine
and the :class:`ProfilerSettings`), which Stage 3 replays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Real

import numpy as np

from repro._util import as_rng
from repro.testbed.machine import XeonSpec, default_machine
from repro.workloads.base import MB, WorkloadSpec

#: Static runtime-condition features, per service (own block then
#: partner block; partner block zeroed when running solo).
_PER_SERVICE_STATIC = (
    "timeout",
    "utilization",
    "gross_increase",
    "mrc_m0",
    "mrc_m_inf",
    "mrc_footprint_mb",
    "memory_boundedness",
    "service_cv",
    "access_intensity_m",
    "n_processes",
)
STATIC_FEATURE_NAMES: tuple[str, ...] = tuple(
    f"own_{n}" for n in _PER_SERVICE_STATIC
) + tuple(f"partner_{n}" for n in _PER_SERVICE_STATIC)

#: Dynamic runtime conditions.  Deliberately *not* wait/response-time
#: derived — queue length and boost occupancy describe system state
#: without leaking the prediction target to direct-regression baselines.
#: ``concurrent_boost_fraction`` is the time fraction both sharers hold
#: their short-term allocation simultaneously — the direct driver of
#: shared-way contention.
DYNAMIC_FEATURE_NAMES: tuple[str, ...] = (
    "mean_queue_length",
    "own_boost_fraction",
    "partner_boost_fraction",
    "concurrent_boost_fraction",
)

_TIMEOUT_CAP = 10.0  # finite encoding for "never boost" (inf timeouts)


def _spec_static(spec: WorkloadSpec, timeout: float, util: float, gross: float):
    return [
        min(float(timeout), _TIMEOUT_CAP),
        float(util),
        float(gross),
        spec.mrc.m0,
        spec.mrc.m_inf,
        spec.mrc.footprint_bytes / MB,
        spec.memory_boundedness,
        spec.service_cv,
        spec.access_intensity / 1e6,
        float(spec.n_processes),
    ]


def static_features(
    own: WorkloadSpec,
    own_timeout: float,
    own_util: float,
    own_gross: float,
    partner: WorkloadSpec | None = None,
    partner_timeout: float = np.inf,
    partner_util: float = 0.0,
    partner_gross: float = 1.0,
) -> np.ndarray:
    """Assemble the 20-dim static condition vector for one target service."""
    own_block = _spec_static(own, own_timeout, own_util, own_gross)
    if partner is None:
        partner_block = [0.0] * len(_PER_SERVICE_STATIC)
    else:
        partner_block = _spec_static(partner, partner_timeout, partner_util, partner_gross)
    return np.asarray(own_block + partner_block, dtype=float)


def chain_partner(n: int, i: int) -> int | None:
    """The chain neighbour whose shared region service ``i`` of ``n``
    borrows: the next service, or the one before for the last (none
    when running solo)."""
    if n <= 1:
        return None
    return i + 1 if i < n - 1 else i - 1


def chain_static_features(condition, specs, grosses, i: int) -> np.ndarray:
    """Static vector of service ``i`` of ``condition``: its own block plus
    its chain partner's, given every service's spec and gross increase."""
    j = chain_partner(len(specs), i)
    own = (specs[i], condition.timeouts[i], condition.utilizations[i], grosses[i])
    if j is None:
        return static_features(*own)
    return static_features(
        *own, specs[j], condition.timeouts[j], condition.utilizations[j], grosses[j]
    )


def dynamic_features(
    mean_queue_length: float,
    own_boost_fraction: float,
    partner_boost_fraction: float,
    concurrent_boost_fraction: float = 0.0,
) -> np.ndarray:
    """Assemble the dynamic-condition vector (queueing feedback)."""
    return np.asarray(
        [
            mean_queue_length,
            own_boost_fraction,
            partner_boost_fraction,
            concurrent_boost_fraction,
        ],
        dtype=float,
    )


@dataclass(frozen=True)
class RuntimeCondition:
    """One Stage 1 experiment setting (a Table 2 point).

    ``workloads`` are the collocated pair's names (target service
    first is not implied — rows are emitted per service).
    """

    workloads: tuple[str, ...]
    utilizations: tuple[float, ...]
    timeouts: tuple[float, ...]

    def __post_init__(self) -> None:
        k = len(self.workloads)
        if k < 1:
            raise ValueError("need at least one workload")
        if len(self.utilizations) != k or len(self.timeouts) != k:
            raise ValueError("utilizations/timeouts must match workloads")
        if any(not 0 < u < 1 for u in self.utilizations):
            raise ValueError("utilizations must be in (0, 1)")
        if any(not t >= 0 for t in self.timeouts):
            raise ValueError("timeouts must be >= 0 (inf disables STA)")


@dataclass(frozen=True)
class ProfilerSettings:
    """Knobs of one profiling campaign, and with the machine its whole
    testbed layout: every service's private and shared reservation, the
    counter sampling rate and the trace tick count."""

    n_queries: int = 800
    n_windows: int = 4
    trace_ticks: int = 20
    sampling_hz: float = 1.0
    counter_noise: float = 0.05
    private_mb: float = 2.0
    shared_mb: float = 2.0
    warmup_fraction: float = 0.1

    def __post_init__(self) -> None:
        for name in ("n_queries", "n_windows", "trace_ticks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("sampling_hz", "private_mb"):
            value = getattr(self, name)
            if not (isinstance(value, Real) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not (math.isfinite(self.counter_noise) and self.counter_noise >= 0):
            raise ValueError(
                f"counter_noise must be finite and >= 0, got {self.counter_noise}"
            )
        if not (math.isfinite(self.shared_mb) and self.shared_mb >= 0):
            raise ValueError(
                f"shared_mb must be finite and >= 0, got {self.shared_mb}"
            )
        if not 0 <= self.warmup_fraction < 1:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )


@dataclass
class ProfileRow:
    """One training/testing sample for the EA model."""

    condition: RuntimeCondition
    service_idx: int  # which collocated service this row targets
    window_idx: int
    x_static: np.ndarray
    x_dynamic: np.ndarray
    trace: np.ndarray  # (n_counter_rows, n_ticks)
    ea: float  # measured effective allocation (target)
    rt_mean: float  # ground-truth mean response time (normalized)
    rt_p95: float

    @property
    def service_name(self) -> str:
        return self.condition.workloads[self.service_idx]


@dataclass
class ProfileDataset:
    """Column-oriented view over profile rows, ready for model training.

    ``machine`` and ``settings`` are the testbed layout the rows were
    profiled on; :meth:`subset` and every split carry them along.  A
    dataset built by hand from rows gets the values ``Profiler()`` runs
    with.
    """

    rows: list[ProfileRow] = field(default_factory=list)
    machine: XeonSpec = field(default_factory=default_machine)
    settings: ProfilerSettings = field(default_factory=ProfilerSettings)

    def __len__(self) -> int:
        return len(self.rows)

    def extend(self, rows) -> None:
        self.rows.extend(rows)

    @property
    def X_flat(self) -> np.ndarray:
        """(n, d_static + d_dynamic) condition features."""
        return np.stack(
            [np.concatenate([r.x_static, r.x_dynamic]) for r in self.rows]
        )

    @property
    def traces(self) -> np.ndarray:
        """(n, H, W) counter traces."""
        return np.stack([r.trace for r in self.rows])

    @property
    def y_ea(self) -> np.ndarray:
        return np.asarray([r.ea for r in self.rows], dtype=float)

    @property
    def y_rt_mean(self) -> np.ndarray:
        return np.asarray([r.rt_mean for r in self.rows], dtype=float)

    @property
    def y_rt_p95(self) -> np.ndarray:
        return np.asarray([r.rt_p95 for r in self.rows], dtype=float)

    def subset(self, indices) -> "ProfileDataset":
        return replace(self, rows=[self.rows[i] for i in np.asarray(indices)])

    def split_by_condition(self, predicate) -> tuple:
        """(matching, rest) split by a condition predicate — used for the
        leave-collocation-out generalization test (Figure 7a)."""
        yes = [i for i, r in enumerate(self.rows) if predicate(r.condition)]
        no = [i for i, r in enumerate(self.rows) if not predicate(r.condition)]
        return self.subset(yes), self.subset(no)

    def conditions(self) -> list[RuntimeCondition]:
        """Distinct conditions, in first-appearance order."""
        seen: dict[int, RuntimeCondition] = {}
        for r in self.rows:
            seen.setdefault(id(r.condition), r.condition)
        return list(seen.values())

    def split_conditions(self, train_fraction: float, rng=None) -> tuple:
        """Random (train, test) split at *condition* granularity.

        Windows of one run never straddle the split, matching the
        paper's protocol ("testing data was not used during training to
        ensure models accurately extrapolated to new, unseen
        conditions").
        """
        if not 0 < train_fraction < 1:
            raise ValueError("train_fraction must be in (0, 1)")
        rng = as_rng(rng)
        conds = self.conditions()
        perm = rng.permutation(len(conds))
        k = max(1, int(len(conds) * train_fraction))
        train_ids = {id(conds[i]) for i in perm[:k]}
        tr = [i for i, r in enumerate(self.rows) if id(r.condition) in train_ids]
        te = [i for i, r in enumerate(self.rows) if id(r.condition) not in train_ids]
        return self.subset(tr), self.subset(te)

    def condition_groups(self) -> dict:
        """Row indices grouped by (condition, target service).

        Returns ``{(condition_id, service_idx): [row indices]}`` —
        condition-level aggregation keys for evaluation.
        """
        groups: dict = {}
        for i, r in enumerate(self.rows):
            groups.setdefault((id(r.condition), r.service_idx), []).append(i)
        return groups
