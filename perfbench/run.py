#!/usr/bin/env python3
"""End-to-end pipeline benchmark: profile -> fit -> predict -> timeout search.

Run from the repository root::

    python3 perfbench/run.py --workload {build,plan,whatif} --seed N \
        --seconds S --trace {0,1}

The library under test is imported from ``src/`` next to this directory.
With ``--trace 0`` the run sets up ``SETUP_REPS`` times, then times the
workload's operation in a closed loop for ``--seconds`` and reports the
end-to-end metrics.  Times on the result line are scaled to a nominal
host speed sampled throughout the run (``hostspeed.py``); the report
line also carries the wall-clock times.  With ``--trace 1`` it runs a
fixed number of operations twice each, untraced and traced in
alternating order, and reports the per-layer metrics of
``layers.LAYERS``.

Standard output ends with two JSON lines: a report with provenance,
every metric with its sample count, digests and checks, then the result
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("build", "plan", "whatif")
SETUP_REPS = 3
#: Short set-ups repeat until this much set-up time has passed, so their
#: median is about as steady as a long set-up's.
SETUP_MIN_S = 3.0
#: A held-out median APE above this means the model is broken.
APE_LIMIT = 0.5
#: End-to-end metrics of the untraced run's result line, the ones every
#: workload has; BENCHMARK.json declares the same.  The report line adds
#: the workload-specific ones (README.md).
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Workload-specific end-to-end metrics, on the report line only.
REPORTED: dict[str, str] = {
    "op_p50_s": "s",
    "profile_s": "s",
    "fit_s": "s",
    "op_tail_s": "s",
    "error_rate": "fraction",
    "ape_median": "fraction",
    "plan_p50_s": "s",
    "chain_plan_p50_s": "s",
    "predict_p50_s": "s",
    "predict_tail_s": "s",
    "setup_wall_s": "s",
    "op_p50_wall_s": "s",
    "host_ref_s": "s",
}
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def n_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cap_threads(limit: int) -> None:
    """Cap BLAS/OpenMP pools at ``limit`` threads (before NumPy loads)."""
    for var in _THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= limit:
            os.environ[var] = str(limit)


def git_sha(root: Path) -> str:
    """HEAD's commit from ``.git`` without running git; ``unknown`` outside
    a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples beyond)``; with ten samples
    or fewer there is no such percentile and the maximum is returned.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def _call(workload, state, i, speed, tracer=None):
    """Run operation ``i``; ``(raw, wall seconds, scaled seconds,
    phases)`` from the host-speed sampler ``speed``, raw and times
    ``None`` if it raised."""
    try:
        if tracer is None:
            mark = speed.mark()
            raw, phases = workload.op(state, i)
            return (raw, *speed.measure(mark), phases)
        with tracer.active():
            mark = speed.mark()
            with tracer.operation():
                raw, phases = workload.op(state, i)
            return (raw, *speed.measure(mark), phases)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, None, None, {}


class Tally:
    """Latencies, phase seconds, APEs, item counts and digests of a run."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.first = workload.first_pass(state)
        self.latencies: list[float] = []
        self.wall_latencies: list[float] = []
        self.phases: dict[str, list[float]] = defaultdict(list)
        self.apes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self._digest = hashlib.sha256()

    def record(self, i, raw, wall, scaled, phases, primary=True) -> str:
        """Check one operation's outputs; returns their digest.

        Only ``primary`` operations feed latencies and the first-pass
        accuracy and digest (the traced twin of an operation does not).
        Phase times are scaled by the operation's ``scaled / wall``.
        """
        out, apes = self.workload.check(self.state, i, raw)
        self.attempted += out.attempted
        self.failed += out.failed
        if primary:
            factor = 1.0
            if wall is not None:
                self.latencies.append(scaled)
                self.wall_latencies.append(wall)
                factor = scaled / wall
            for key, value in phases.items():
                values = value if isinstance(value, list) else [value]
                self.phases[key].extend(v * factor for v in values)
            if i < self.first:
                self.apes.extend(apes)
                self._digest.update(out.digest().encode())
        return out.digest()

    def digest(self) -> str:
        return self._digest.hexdigest()


def _metric(value: float, unit: str, samples: int | None = None) -> dict:
    d = {"value": float(value), "unit": unit}
    if samples is not None:
        d["samples"] = samples
    return d


def run(name: str, seed: int, seconds: float, trace: bool, scale_name: str = "full"):
    """One benchmark run; returns ``(report, result)``."""
    import numpy as np

    import hostspeed
    from layers import Tracer, layer_metrics, per_layer_metric_units
    from workloads import SCALES, WORKLOADS, check_setup

    workload = WORKLOADS[name]
    scale = SCALES[scale_name]

    # Set-up, repeated so its median is steady; every repetition must
    # produce identical outputs.  The untraced run samples host speed
    # throughout.
    with hostspeed.Sampler(enabled=not trace) as speed:
        setup_seconds, setup_wall, setup_digests = [], [], []
        setup_phases = defaultdict(list)
        min_reps, min_seconds = (1, 0.0) if trace else (SETUP_REPS, SETUP_MIN_S)
        while len(setup_seconds) < min_reps or sum(setup_wall) < min_seconds:
            mark = speed.mark()
            state = workload.setup(seed, scale)
            wall, scaled = speed.measure(mark)
            setup_wall.append(wall)
            setup_seconds.append(scaled)
            setup_out = check_setup(state)
            setup_digests.append(setup_out.digest())
            for key, value in state.phases.items():
                setup_phases[key].append(value * scaled / wall)

        tally = Tally(workload, state)
        tally.attempted, tally.failed = setup_out.attempted, setup_out.failed
        checks = {"setup_identical": len(set(setup_digests)) == 1}
        layer_values = None
        if not trace:
            deadline = time.perf_counter() + seconds
            i = 0
            while i < tally.first or time.perf_counter() < deadline:
                tally.record(i, *_call(workload, state, i, speed))
                i += 1
        else:
            # A fixed operation count, so the per-operation counts repeat
            # exactly; each operation runs untraced and traced, alternating
            # which goes first.
            n_ops = max(tally.first, int(seconds / (2 * workload.nominal_op_s)))
            tracer = Tracer()
            wall = {False: 0.0, True: 0.0}
            same = True
            for i in range(n_ops):
                digests = {}
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    raw, sec, scaled, phases = _call(
                        workload, state, i, speed, tracer if traced else None
                    )
                    digests[traced] = tally.record(
                        i, raw, sec, scaled, phases, primary=not traced
                    )
                    wall[traced] += sec or 0.0
                same = same and digests[False] == digests[True]
            checks["traced_identical"] = same
            overhead = wall[True] / wall[False] - 1.0 if wall[False] else 0.0
            layer_values = layer_metrics(tracer.log.records, n_ops, overhead)

    if not tally.latencies:
        raise RuntimeError("every timed operation failed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    profile = tally.phases.get("profile_s") or setup_phases["profile_s"]
    fit = tally.phases.get("fit_s") or setup_phases["fit_s"]
    tail_value, tail_pct, tail_beyond = tail(tally.latencies)
    e2e = {
        "setup_s": _metric(statistics.median(setup_seconds), "s", len(setup_seconds)),
        "profile_s": _metric(statistics.median(profile), "s", len(profile)),
        "fit_s": _metric(statistics.median(fit), "s", len(fit)),
        "op_p50_s": _metric(
            statistics.median(tally.latencies), "s", len(tally.latencies)
        ),
        "op_tail_s": _metric(tail_value, "s", len(tally.latencies)),
        "ops_per_s": _metric(
            len(tally.latencies) / sum(tally.latencies), "1/s", len(tally.latencies)
        ),
        "peak_rss_mb": _metric(peak_rss_mb, "MB", 1),
    }
    named = dict(e2e)
    named["setup_wall_s"] = _metric(statistics.median(setup_wall), "s", len(setup_wall))
    named["op_p50_wall_s"] = _metric(
        statistics.median(tally.wall_latencies), "s", len(tally.wall_latencies)
    )
    named["host_ref_s"] = _metric(speed.median_sample(), "s", len(speed.samples))
    named["error_rate"] = _metric(
        tally.failed / tally.attempted, "fraction", tally.attempted
    )
    if tally.apes:
        named["ape_median"] = _metric(
            statistics.median(tally.apes), "fraction", len(tally.apes)
        )
        checks["ape_within_limit"] = bool(
            np.isfinite(named["ape_median"]["value"])
            and named["ape_median"]["value"] <= APE_LIMIT
        )
    for key, metric in (("plan_s", "plan_p50_s"), ("chain_plan_s", "chain_plan_p50_s")):
        if tally.phases.get(key):
            values = tally.phases[key]
            named[metric] = _metric(statistics.median(values), "s", len(values))
    if name == "whatif":
        named["predict_p50_s"] = e2e["op_p50_s"]
        named["predict_tail_s"] = e2e["op_tail_s"]

    correct = tally.failed == 0 and all(checks.values())
    if trace:
        units, values = per_layer_metric_units(), layer_values
    else:
        units, values = END_TO_END, {k: m["value"] for k, m in e2e.items()}
    metrics = {key: _metric(values[key], unit) for key, unit in units.items()}
    report = {
        "workload": name,
        "why": workload.why,
        "loop": workload.loop,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale_name,
        "provenance": {
            "git_sha": git_sha(ROOT),
            "n_cpus": n_cpus(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "metrics": named,
        "op_tail": {"percentile": tail_pct, "samples_beyond": tail_beyond},
        "layers": layer_values,
        "untraced_entry_points": tracer.missing if trace else [],
        "setup_digest": setup_digests[0],
        "output_digest": tally.digest(),
        "checks": checks,
    }
    result = {
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"library sources not found under {SRC}", file=sys.stderr)
        return 2

    cap_threads(n_cpus())
    sys.path.insert(0, str(SRC))
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
