"""Stage 1 profiling: vectorized counter sampling vs the scalar walk.

Profiles a fixed redis/knn campaign at the default ``ProfilerSettings``
twice: once as shipped, and once with the scalar per-tick oracle from
``tests/test_counters/sampler_oracle.py`` patched in (the sampling code
before it was vectorized).  The two datasets must be bit-identical; the
table prints both times and the speedup.

The equivalence assert always runs, including in smoke mode
(``BENCH_SMOKE=1``, a smaller campaign), which CI uses on every push.
The full run also asserts the >= 8x Stage 1 target; both sides run in
one process, so the ratio does not depend on the CPU count.
"""

import os
import time

import numpy as np

from benchmarks.conftest import print_block
from repro.analysis import format_table
from repro.core.profiler import Profiler, ProfilerSettings
from repro.core.sampling import uniform_conditions
from tests.test_counters.sampler_oracle import patch_profiler

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
PAIR = ("redis", "knn")
FIELDS = ("X_flat", "traces", "y_ea", "y_rt_mean", "y_rt_p95")


def _timed_profile(settings, conditions):
    t0 = time.perf_counter()
    data = Profiler(settings=settings, rng=0).profile(conditions)
    return data, time.perf_counter() - t0


def test_profiler_scaling(monkeypatch):
    n_conditions = 3 if SMOKE else 20
    settings = ProfilerSettings(n_queries=300) if SMOKE else ProfilerSettings()
    conditions = uniform_conditions(PAIR, n=n_conditions, rng=0)

    fast, t_fast = _timed_profile(settings, conditions)
    with monkeypatch.context() as m:
        patch_profiler(m)
        slow, t_slow = _timed_profile(settings, conditions)

    assert len(fast) == len(slow) > 0
    for name in FIELDS:
        assert np.array_equal(getattr(fast, name), getattr(slow, name)), name

    speedup = t_slow / t_fast
    print_block(
        format_table(
            ["sampling", "seconds", "speedup"],
            [["scalar oracle", t_slow, 1.0], ["vectorized", t_fast, speedup]],
            title=(
                f"Stage 1, {n_conditions} {'/'.join(PAIR)} conditions, "
                f"{settings.n_queries} queries, {len(fast)} rows"
                + (" [smoke]" if SMOKE else "")
            ),
        )
    )
    if not SMOKE:
        assert speedup >= 8.0, f"expected >= 8x on Stage 1, got {speedup:.2f}x"
