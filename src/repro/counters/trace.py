"""Cache usage traces: fixed-size counter matrices.

Traces are (n_counters x n_ticks) matrices whose rows keep the natural,
grouped-by-type order of ``COUNTER_NAMES``.  Figure 7c studies how that
*spatial* ordering helps multi-grained scanning: grouping related
counters preserves locality a convolution can exploit; shuffling
destroys it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.counters.events import N_COUNTERS


@dataclass
class CacheUsageTrace:
    """One profiling window's counter trace for a collocated pair.

    ``data`` stacks each collocated service's counters along axis 0 in
    service order: shape (n_services * 29, n_ticks).  Short windows are
    zero-padded on the right so all traces are equally sized (Section
    3.1: "we fill zero values to pad traces").
    """

    data: np.ndarray
    service_names: tuple[str, ...]

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise ValueError("trace data must be 2-D")
        if self.data.shape[0] != len(self.service_names) * N_COUNTERS:
            raise ValueError(
                f"axis 0 must be n_services*{N_COUNTERS}, got {self.data.shape[0]}"
            )

    @property
    def n_services(self) -> int:
        return len(self.service_names)

    @property
    def n_ticks(self) -> int:
        return self.data.shape[1]

    @classmethod
    def from_counters(
        cls,
        per_service: list[np.ndarray],
        service_names: list[str],
        n_ticks: int,
    ) -> "CacheUsageTrace":
        """Stack per-service (n_ticks_i, 29) counter matrices, padding or
        truncating every one to exactly ``n_ticks`` columns."""
        if len(per_service) != len(service_names):
            raise ValueError("need one counter matrix per service name")
        blocks = []
        for mat in per_service:
            m = np.asarray(mat, dtype=float).T  # -> (29, n_ticks_i)
            if m.shape[0] != N_COUNTERS:
                raise ValueError(f"expected 29-counter matrices, got {m.shape}")
            if m.shape[1] >= n_ticks:
                m = m[:, :n_ticks]
            else:
                m = np.pad(m, ((0, 0), (0, n_ticks - m.shape[1])))
            blocks.append(m)
        return cls(data=np.vstack(blocks), service_names=tuple(service_names))
