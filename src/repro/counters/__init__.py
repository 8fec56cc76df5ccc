"""Synthetic architectural performance counters.

Substitutes for the Linux perf counters the paper samples (Section 4):
29 cache-usage counters per service, sampled 0.2-1 Hz, derived causally
from the simulated cache state so the deep-learning stage has real
signal to find.
"""

from repro.counters.events import (
    COUNTER_NAMES,
    N_COUNTERS,
    synthesize_tick,
    synthesize_ticks,
)
from repro.counters.sampler import CounterSampler
from repro.counters.trace import CacheUsageTrace

__all__ = [
    "COUNTER_NAMES",
    "N_COUNTERS",
    "synthesize_tick",
    "synthesize_ticks",
    "CounterSampler",
    "CacheUsageTrace",
]
