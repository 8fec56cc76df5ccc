"""Serial vs batched STAP queueing kernel at policy-search scale.

Simulates the C = 25 conditions of one 5x5 timeout-grid round (k = 2
servers each, heterogeneous timeouts/boosts) three ways: one call per
condition of the per-query ``heapq`` loop the serial kernel used to be
(``tests/test_queueing/ggk_oracle.py``), one call per condition of the
shipped scalar serial kernel, and one batched call.  The batched kernel
must produce *bit-identical* results per condition while collapsing
~C x n interpreted iterations into one vectorized loop of ~256 steps
over the C x n / 256 segment lanes, plus the repair of each segment.

The equivalence assert always runs — including in smoke mode
(``BENCH_SMOKE=1``), which CI uses on every push.  The >= 3x wall-clock
assertion is the batched kernel against the heap loop (the comparison
this gate has always made; the table prints the scalar kernel too).
It follows the policy-search benchmark convention: it only applies on
machines exposing >= 4 CPUs (smaller boxes still record the numbers so
regressions stay visible).

Each full (non-smoke) run appends its timing summary to
``BENCH_queue_kernel.json`` at the repo root, accumulating the kernel's
performance trajectory across sessions: ``serial_s`` is the heap loop
(as in every earlier record), ``scalar_s`` the shipped serial kernel.

A second test times the shapes where the batched kernel's segments
matter most, each against one scalar-kernel call per condition: C = 1
and C = 2 conditions of 16000 queries (the perfbench ``whatif`` shape,
where a condition is 63 segments), and the worst case, one overloaded
condition (util 0.95, boost 0.3, timeout 0) whose segments never couple
and fall back to the scalar step.  Its equivalence asserts also run in
every mode; its full runs append a ``queue_kernel_segments`` record.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import print_block
from repro.analysis import format_table
from repro.queueing import (
    StapQueueConfig,
    simulate_stap_queue,
    simulate_stap_queue_batch,
)
from tests.test_queueing.ggk_oracle import simulate_heap_queue

N_CONDITIONS = 25
N_QUERIES = 4000
WHATIF_QUERIES = 16000
SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
RESULTS_JSON = Path(__file__).resolve().parents[1] / "BENCH_queue_kernel.json"


def _grid_round(rng):
    """One fixed-point round of the default 5x5 grid search: per-combo
    timeouts, utilization-dependent arrivals, lognormal demands."""
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


def _record(row: dict) -> None:
    history = []
    if RESULTS_JSON.exists():
        try:
            history = json.loads(RESULTS_JSON.read_text())
        except (json.JSONDecodeError, OSError):
            history = []
    history.append(row)
    RESULTS_JSON.write_text(json.dumps(history, indent=2) + "\n")


def test_queue_kernel_scaling():
    arrivals, demands, configs = _grid_round(np.random.default_rng(0))
    n_cpus = len(os.sched_getaffinity(0))
    reps = 1 if SMOKE else 5

    # Identical-results assert: always on, every mode.
    batch = simulate_stap_queue_batch(arrivals, demands, configs)
    serial_results = [
        simulate_stap_queue(arrivals[c], demands[c], configs[c])
        for c in range(N_CONDITIONS)
    ]
    for c, serial in enumerate(serial_results):
        heap = simulate_heap_queue(arrivals[c], demands[c], configs[c])
        assert np.array_equal(serial.completion_times, heap.completion_times)
        assert np.array_equal(serial.start_times, batch.start_times[c])
        assert np.array_equal(serial.completion_times, batch.completion_times[c])
        assert np.array_equal(serial.boosted_time, batch.boosted_time[c])
        assert np.array_equal(serial.boosted, batch.boosted[c])

    # Best-of-N wall clock, interleaved to share any machine noise.
    t_serial, t_scalar, t_batch = np.inf, np.inf, np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        for c in range(N_CONDITIONS):
            simulate_heap_queue(arrivals[c], demands[c], configs[c])
        t_serial = min(t_serial, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for c in range(N_CONDITIONS):
            simulate_stap_queue(arrivals[c], demands[c], configs[c])
        t_scalar = min(t_scalar, time.perf_counter() - t0)
        t0 = time.perf_counter()
        simulate_stap_queue_batch(arrivals, demands, configs)
        t_batch = min(t_batch, time.perf_counter() - t0)
    speedup = t_serial / t_batch

    rows = [
        ["heap x25", t_serial * 1e3, 1.0],
        ["scalar x25", t_scalar * 1e3, t_serial / t_scalar],
        ["batched", t_batch * 1e3, speedup],
    ]
    print_block(
        format_table(
            ["kernel", "ms (best of %d)" % reps, "speedup"],
            rows,
            title=(
                f"G/G/2 STAP kernel, C={N_CONDITIONS} conditions x "
                f"{N_QUERIES} queries, {n_cpus} CPU(s)"
                + (" [smoke]" if SMOKE else "")
            ),
        )
    )

    if not SMOKE:
        _record(
            {
                "bench": "queue_kernel_scaling",
                "timestamp": int(time.time()),
                "n_conditions": N_CONDITIONS,
                "n_queries": N_QUERIES,
                "n_cpus": n_cpus,
                "serial_s": round(t_serial, 6),
                "scalar_s": round(t_scalar, 6),
                "batch_s": round(t_batch, 6),
                "speedup": round(speedup, 3),
            }
        )
        if n_cpus >= 4:
            assert speedup >= 3.0, (
                f"expected >= 3x batched speedup at C={N_CONDITIONS} on "
                f"{n_cpus} CPUs, got {speedup:.2f}x"
            )


def _segment_cases(rng):
    """``(label, arrivals, demands, configs)`` of the segment rows."""
    cases = []
    for n_conditions in (1, 2):
        util = rng.uniform(0.3, 0.95, n_conditions)
        gaps = rng.standard_exponential((n_conditions, WHATIF_QUERIES))
        configs = [
            StapQueueConfig(n_servers=2, timeout=t, boost_speedup=b)
            for t, b in zip((0.5, 2.0), (1.3, 1.1))
        ][:n_conditions]
        cases.append(
            (
                f"C={n_conditions}",
                np.cumsum(gaps / (2 * util[:, None]), axis=1),
                rng.lognormal(-0.06, 0.35, (n_conditions, WHATIF_QUERIES)),
                configs,
            )
        )
    gaps = rng.standard_exponential((1, WHATIF_QUERIES))
    cases.append(
        (
            "C=1 overloaded",
            np.cumsum(gaps / (2 * 0.95), axis=1),
            rng.lognormal(-0.06, 0.35, (1, WHATIF_QUERIES)),
            [StapQueueConfig(n_servers=2, timeout=0.0, boost_speedup=0.3)],
        )
    )
    return cases


def test_segmented_kernel_rows():
    n_cpus = len(os.sched_getaffinity(0))
    reps = 1 if SMOKE else 7
    rows, record = [], []
    for label, arrivals, demands, configs in _segment_cases(
        np.random.default_rng(1)
    ):
        # Identical-results assert: always on, every mode.
        batch = simulate_stap_queue_batch(arrivals, demands, configs)
        for c, cfg in enumerate(configs):
            serial = simulate_stap_queue(arrivals[c], demands[c], cfg)
            for field in ("start_times", "completion_times", "boosted_time"):
                assert np.array_equal(
                    getattr(serial, field), getattr(batch, field)[c]
                ), (label, field)

        t_scalar, t_batch = np.inf, np.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            for c, cfg in enumerate(configs):
                simulate_stap_queue(arrivals[c], demands[c], cfg)
            t_scalar = min(t_scalar, time.perf_counter() - t0)
            t0 = time.perf_counter()
            simulate_stap_queue_batch(arrivals, demands, configs)
            t_batch = min(t_batch, time.perf_counter() - t0)
        rows.append([label, t_scalar * 1e3, t_batch * 1e3, t_scalar / t_batch])
        record.append(
            {
                "case": label,
                "scalar_s": round(t_scalar, 6),
                "batch_s": round(t_batch, 6),
            }
        )
    print_block(
        format_table(
            ["case", "scalar ms", "batched ms", "speedup"],
            rows,
            title=(
                f"G/G/2 STAP kernel, {WHATIF_QUERIES} queries, best of "
                f"{reps}, {n_cpus} CPU(s)" + (" [smoke]" if SMOKE else "")
            ),
        )
    )
    if not SMOKE:
        _record(
            {
                "bench": "queue_kernel_segments",
                "timestamp": int(time.time()),
                "n_queries": WHATIF_QUERIES,
                "n_cpus": n_cpus,
                "rows": record,
            }
        )
