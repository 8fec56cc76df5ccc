"""Intel CAT semantics: contiguous way masks, classes of service, and the
private/shared-region structure proved in Section 2 of the paper.

A *short-term allocation policy* is a triple ``(a, a', t)``: default
setting ``a``, boosted setting ``a'`` and timeout ``t``.  The paper proves
two structural conjectures under contiguous allocation, which this module
both computes and verifies:

1. private regions of distinct policies are disjoint, and
2. a short-term allocation shares cache with at most two other settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, order=True)
class WayMask:
    """A contiguous range of cache ways ``[offset, offset + length)``.

    Intel CAT capacity bitmasks (CBMs) must be contiguous; representing
    them as (offset, length) pairs makes that invariant structural.
    """

    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError(f"offset must be >= 0, got {self.offset}")
        if self.length <= 0:
            raise ValueError(f"length must be > 0, got {self.length}")

    @property
    def end(self) -> int:
        """One past the last way in the mask."""
        return self.offset + self.length

    def ways(self) -> np.ndarray:
        """Indices of the ways enabled by this mask."""
        return np.arange(self.offset, self.end, dtype=np.intp)

    def covers(self, other: "WayMask") -> bool:
        """True when every way of ``other`` is inside this mask."""
        return self.offset <= other.offset and other.end <= self.end

    def overlaps(self, other: "WayMask") -> bool:
        return self.offset < other.end and other.offset < self.end

    def intersection(self, other: "WayMask") -> "WayMask | None":
        lo = max(self.offset, other.offset)
        hi = min(self.end, other.end)
        if hi <= lo:
            return None
        return WayMask(lo, hi - lo)


@dataclass(frozen=True)
class ShortTermPolicy:
    """A short-term allocation policy ``(a, a', t)``.

    ``default`` is the allocation used during normal execution, ``boost``
    the temporary allocation granted when a query's time in system exceeds
    ``timeout`` (expressed relative to expected service time, Eq. 4;
    ``timeout`` of e.g. 1.5 means trigger at 150% of service time).
    """

    default: WayMask
    boost: WayMask
    timeout: float

    def __post_init__(self) -> None:
        if not self.timeout >= 0:
            raise ValueError(f"timeout must be >= 0, got {self.timeout}")
        if not self.boost.covers(self.default):
            raise ValueError(
                "boost mask must cover the default mask so private ways stay "
                f"accessible during short-term allocation: {self.default} vs {self.boost}"
            )

    @property
    def gross_increase(self) -> float:
        """Ratio l_a' / l_a used to normalize effective allocation (Eq. 3)."""
        return self.boost.length / self.default.length


def private_region(
    policy: ShortTermPolicy, others: "list[ShortTermPolicy]"
) -> WayMask | None:
    """The private cache region ``V_(a, a')`` of Equation 1.

    A way is private to ``policy`` when it is enabled in both the default
    and boosted settings and not enabled in any setting of any other
    policy.  Under contiguous masks the result is itself contiguous (or
    empty).
    """
    # The boost mask covers the default mask, so the ways enabled in both
    # settings are the default mask's.
    lo, hi = policy.default.offset, policy.default.end
    for other in others:
        for mask in (other.default, other.boost):
            inter = WayMask(lo, hi - lo).intersection(mask) if hi > lo else None
            if inter is None:
                continue
            # Shrink the candidate region away from the intrusion. Because
            # masks are contiguous the surviving region stays contiguous:
            # keep the larger of the two residual sides.
            left = inter.offset - lo
            right = hi - inter.end
            if left >= right:
                hi = inter.offset
            else:
                lo = inter.end
            if hi <= lo:
                return None
    return WayMask(lo, hi - lo)


@dataclass
class CatController:
    """Registry of short-term policies for collocated workloads on one LLC,
    checked against the Section 2 conjectures."""

    n_ways: int
    _policies: dict[str, ShortTermPolicy] = field(default_factory=dict)

    def register(self, workload: str, policy: ShortTermPolicy) -> None:
        """Attach a policy to a workload name, validating it fits the LLC."""
        if policy.boost.end > self.n_ways or policy.default.end > self.n_ways:
            raise ValueError(
                f"policy for {workload!r} uses ways beyond the {self.n_ways}-way LLC"
            )
        self._policies[workload] = policy

    @property
    def workloads(self) -> list[str]:
        return list(self._policies)

    def policy(self, workload: str) -> ShortTermPolicy:
        return self._policies[workload]

    def private_region(self, workload: str) -> WayMask | None:
        """Ways only this workload can ever fill (Eq. 1)."""
        others = [p for w, p in self._policies.items() if w != workload]
        return private_region(self._policies[workload], others)

    # -- Section 2 conjectures, checkable at configuration time ----------

    def private_regions_disjoint(self) -> bool:
        """Conjecture 1: private regions of registered policies are disjoint."""
        regions = [
            r
            for w in self._policies
            if (r := self.private_region(w)) is not None
        ]
        for i, a in enumerate(regions):
            for b in regions[i + 1 :]:
                if a.overlaps(b):
                    return False
        return True

    def sharer_counts(self) -> dict[str, int]:
        """For each workload, how many *other* settings overlap its boost mask."""
        counts: dict[str, int] = {}
        for w, p in self._policies.items():
            n = 0
            for w2, p2 in self._policies.items():
                if w2 == w:
                    continue
                if p.boost.overlaps(p2.boost) or p.boost.overlaps(p2.default):
                    n += 1
            counts[w] = n
        return counts

    def max_sharers(self) -> int:
        """Conjecture 2 bound: should be <= 2 when all policies keep private cache."""
        counts = self.sharer_counts()
        return max(counts.values(), default=0)

    def all_have_private_cache(self) -> bool:
        return all(self.private_region(w) is not None for w in self._policies)


def pairwise_layout(
    n_ways: int,
    private_ways: int,
    shared_ways: int,
    timeouts: tuple[float, float],
) -> tuple[ShortTermPolicy, ShortTermPolicy]:
    """Build the paper's pairwise collocation layout (Section 5).

    Matches the paper's example (Jacobi private ways #1-2, BFS private
    ways #5-6, shared ways #3-4 between them): workload A reserves ways
    ``[0, private)``, the ``shared_ways`` immediately after are granted to
    either workload during short-term allocation, and workload B reserves
    the ways immediately after the shared region.
    """
    if 2 * private_ways + shared_ways > n_ways:
        raise ValueError(
            f"layout needs {2 * private_ways + shared_ways} ways, LLC has {n_ways}"
        )
    a_default = WayMask(0, private_ways)
    a_boost = WayMask(0, private_ways + shared_ways)
    b_default = WayMask(private_ways + shared_ways, private_ways)
    b_boost = WayMask(private_ways, private_ways + shared_ways)
    return (
        ShortTermPolicy(a_default, a_boost, timeouts[0]),
        ShortTermPolicy(b_default, b_boost, timeouts[1]),
    )
