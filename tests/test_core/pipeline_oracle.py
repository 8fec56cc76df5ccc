"""Reference per-service nominal-trace synthesis for equivalence tests.

This is the body :meth:`StacModel._nominal_trace` had before it became
one batch over every (condition, service) pair of a fixed-point round:
for one target service, compute each block's boosted capacity (with its
own shared-way split), spread the boosted ticks through the window and
synthesize the (own, chain-neighbour) counter blocks one
``synthesize_ticks`` call each.  The batched path must reproduce it bit
for bit.
"""

import numpy as np

from repro.counters.events import synthesize_ticks


def boosted_capacity_oracle(model, specs, j, boost_fractions) -> float:
    """Expected LLC bytes for service ``j`` while it holds its boost."""
    mb = 1024 * 1024
    private = model.private_mb * mb
    shared = model.shared_mb * mb
    n = len(specs)
    adjacent = [k for k in (j - 1, j + 1) if 0 <= k < n]
    cap = private
    w_own = specs[j].fill_intensity(specs[j].baseline_capacity)
    for k in adjacent:
        pb = float(boost_fractions[k])
        w_k = specs[k].fill_intensity(specs[k].baseline_capacity)
        both = model._contention.effective_shared_ways(
            shared, np.array([w_own, w_k])
        )
        cap += (1 - pb) * shared + pb * both[0]
    return cap


def nominal_trace_oracle(model, specs, target, utils, boost_fractions) -> np.ndarray:
    """(n_blocks * N_COUNTERS, trace_ticks) nominal trace of one service."""
    mb = 1024 * 1024
    private = model.private_mb * mb
    dt = 1.0 / model.sampling_hz
    n = len(specs)
    if n == 1:
        order = [target]
    else:
        order = [target, target + 1 if target < n - 1 else target - 1]
    blocks = []
    for j in order:
        spec = specs[j]
        cap_boost = boosted_capacity_oracle(model, specs, j, boost_fractions)
        bf = float(boost_fractions[j])
        boosted_ticks = {
            int(round(k * model.trace_ticks / max(1, round(bf * model.trace_ticks))))
            for k in range(int(round(bf * model.trace_ticks)))
        }
        boosted = np.zeros(model.trace_ticks, dtype=bool)
        boosted[[t for t in boosted_ticks if t < model.trace_ticks]] = True
        cap = np.where(boosted, cap_boost, private)
        ticks = synthesize_ticks(
            spec,
            capacity_bytes=cap,
            busy_fraction=float(utils[j]),
            boost_fraction=boosted.astype(float),
            dt=dt,
            ways_allocated=cap / model.machine.way_bytes,
            noise=0.0,
        )
        blocks.append(ticks.T)
    return np.vstack(blocks)
