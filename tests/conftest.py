"""Shared profiling fixtures (profiling runs are the slow part)."""

import pytest

from repro.core.profiler import Profiler, ProfilerSettings
from repro.core.sampling import uniform_conditions
from repro.testbed import get_machine


@pytest.fixture(scope="session")
def small_dataset():
    """A small but real profile dataset over redis+social conditions."""
    conditions = uniform_conditions(("redis", "social"), n=8, rng=0)
    profiler = Profiler(
        settings=ProfilerSettings(n_queries=500, n_windows=4, trace_ticks=16),
        rng=0,
    )
    return profiler.profile(conditions)


@pytest.fixture(scope="session")
def mixed_pair_dataset():
    """Profiles over two different collocation pairs (for split tests)."""
    profiler = Profiler(
        settings=ProfilerSettings(n_queries=400, n_windows=3, trace_ticks=16),
        rng=1,
    )
    conds = uniform_conditions(("jacobi", "bfs"), n=4, rng=1) + uniform_conditions(
        ("redis", "knn"), n=4, rng=2
    )
    return profiler.profile(conds)


@pytest.fixture(scope="session")
def e5_2650_dataset():
    """A redis+knn profile on a non-default layout: the e5-2650 with
    3 MB private and 1.5 MB shared reservations."""
    settings = ProfilerSettings(
        n_queries=200, n_windows=2, trace_ticks=8, private_mb=3.0, shared_mb=1.5
    )
    profiler = Profiler(machine=get_machine("e5-2650"), settings=settings, rng=4)
    return profiler.profile(uniform_conditions(("redis", "knn"), n=4, rng=4))
