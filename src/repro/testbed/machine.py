"""Catalogue of the Xeon processors used in the paper's evaluation.

Section 5 runs the default experiments on an E5-2683 (16 cores, 40 MB
LLC) and tests generalization (Figure 7b) on a two-socket Platinum 8275
(72 MB and 59 MB LLC), an E5-2650 (30 MB) and an E5-2620 (20 MB).
"""

from __future__ import annotations

from dataclasses import dataclass

MB = 1024 * 1024


@dataclass(frozen=True)
class XeonSpec:
    """One processor (or socket) with a CAT-managed LLC.

    ``llc_ways`` determines the CAT allocation granularity:
    ``way_bytes = llc_bytes / llc_ways``.
    """

    name: str
    n_cores: int
    llc_bytes: int
    llc_ways: int
    cores_per_service: int = 2

    def __post_init__(self) -> None:
        if (
            self.n_cores < 2
            or self.llc_ways < 2
            or self.llc_bytes <= 0
            or self.cores_per_service < 1
        ):
            raise ValueError(f"degenerate machine spec: {self}")

    @property
    def way_bytes(self) -> float:
        return self.llc_bytes / self.llc_ways

    @property
    def llc_mb(self) -> float:
        return self.llc_bytes / MB

    @property
    def max_collocated(self) -> int:
        """Services hostable when each uses ``cores_per_service`` cores
        (the paper fully utilizes processor cores)."""
        return self.n_cores // self.cores_per_service

    def mb_to_ways(self, mb: float) -> int:
        """Smallest whole number of ways providing at least ``mb`` MB."""
        ways = int(-(-mb * MB // self.way_bytes))  # ceil division
        return max(1, min(ways, self.llc_ways))


#: The evaluation machines, keyed by short name.  Way counts follow the
#: CAT generation: 20-way CBMs on Broadwell/Haswell-era E5s, 3 MB-granular
#: masks on the Platinum sockets.
MACHINES: dict[str, XeonSpec] = {
    m.name: m
    for m in (
        XeonSpec(name="e5-2683", n_cores=16, llc_bytes=40 * MB, llc_ways=20),
        XeonSpec(name="platinum-8275-s0", n_cores=26, llc_bytes=72 * MB, llc_ways=24),
        XeonSpec(name="platinum-8275-s1", n_cores=26, llc_bytes=59 * MB, llc_ways=20),
        XeonSpec(name="e5-2650", n_cores=12, llc_bytes=30 * MB, llc_ways=20),
        XeonSpec(name="e5-2620", n_cores=8, llc_bytes=20 * MB, llc_ways=20),
    )
}


def get_machine(name: str) -> XeonSpec:
    """Look up a machine by name, with a helpful error."""
    try:
        return MACHINES[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown machine {name!r}; available: {sorted(MACHINES)}"
        ) from None


def default_machine() -> XeonSpec:
    """The paper's primary platform (Xeon E5-2683, 40 MB LLC)."""
    return MACHINES["e5-2683"]
