"""Shared fixtures for the experiment harness.

Each benchmark regenerates one of the paper's tables/figures.  The
heavyweight shared artifact is the Figure 6 profiling campaign; it is
profiled once per session and reused by the accuracy benches.
"""

import numpy as np
import pytest

from repro.core.profiler import Profiler, ProfilerSettings
from repro.core.sampling import uniform_conditions

#: The collocation pairs used by the accuracy experiments.  A spread of
#: Table 1 behaviours: HPC vs HPC, key-value vs microservices, Spark vs
#: high-reuse kernel.
ACCURACY_PAIRS = (
    ("jacobi", "bfs"),
    ("redis", "social"),
    ("spkmeans", "knn"),
)


def profile_pairs(pairs, n_per_pair, rng=0, **settings_kw):
    """Profile several collocation pairs into one dataset.  The keywords
    are :class:`ProfilerSettings` fields (``sampling_hz``, the
    reservations, ...)."""
    settings = ProfilerSettings(
        n_queries=settings_kw.pop("n_queries", 600),
        n_windows=settings_kw.pop("n_windows", 4),
        trace_ticks=settings_kw.pop("trace_ticks", 20),
        **settings_kw,
    )
    profiler = Profiler(settings=settings, rng=rng)
    conditions = []
    for i, pair in enumerate(pairs):
        conditions += uniform_conditions(pair, n=n_per_pair, rng=rng + i)
    return profiler.profile(conditions)


@pytest.fixture(scope="session")
def fig6_dataset():
    """The shared accuracy-campaign dataset (3 pairs x 14 conditions)."""
    return profile_pairs(ACCURACY_PAIRS, n_per_pair=14, rng=0)


def print_block(text: str) -> None:
    """Emit a reproduced table/series with visible delimiters."""
    print("\n" + text + "\n", flush=True)
