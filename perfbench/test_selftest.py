"""Tiny-scale self-test of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about half a minute).  It checks that the declarations in BENCHMARK.json,
the runner and the layer registry agree; that every workload prints
every end-to-end metric with its unit and every per-layer metric of the
registry; that traced and untraced runs give the same outputs and
repeat their counts exactly; and that the benchmark refuses to run
without the library sources.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())

#: End-to-end metrics the report line must carry, per workload.
PER_WORKLOAD = {
    "build": {"setup_s": "s", "profile_s": "s", "fit_s": "s", "ape_median": "fraction"},
    "plan": {"setup_s": "s", "plan_p50_s": "s", "chain_plan_p50_s": "s"},
    "whatif": {
        "setup_s": "s",
        "predict_p50_s": "s",
        "predict_tail_s": "s",
        "ape_median": "fraction",
    },
}
COMMON = {"peak_rss_mb": "MB", "error_rate": "fraction"}


def _run(workload: str, trace: int, seed: int = 0):
    """``(report, result)`` of a one-second run at the tiny scale."""
    report, result = run.run(workload, seed, 1.0, bool(trace), scale_name="tiny")
    # What the runner prints must survive JSON.
    return json.loads(json.dumps(report)), json.loads(json.dumps(result))


def test_declarations_agree():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    for declared in CONTRACT["workloads"]:
        assert declared["why"] == workloads.WORKLOADS[declared["name"]].why
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == run.END_TO_END
    assert CONTRACT["per_layer"] == layers.per_layer_declaration()
    assert CONTRACT["paths"] == [HERE.name]


def test_registry_targets_resolve_and_restore():
    targets = [
        t for layer in layers.LAYERS for p in layer.probes for t in p.targets
    ]
    before = [vars(o)[a] for o, a in map(layers._resolve, targets)]
    with layers.Tracer().active():
        during = [vars(o)[a] for o, a in map(layers._resolve, targets)]
    after = [vars(o)[a] for o, a in map(layers._resolve, targets)]
    assert all(b is not d for b, d in zip(before, during))
    assert all(b is a for b, a in zip(before, after))
    for layer in layers.LAYERS:
        assert set(layer.heavy_on) | set(layer.light_on) <= set(workloads.WORKLOADS)
        assert set(layer.moves) <= set(run.END_TO_END) | set(run.REPORTED)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics(name):
    report, result = _run(name, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    expected = {**PER_WORKLOAD[name], **COMMON}
    assert {k: report["metrics"][k]["unit"] for k in expected} == expected
    declared = {**run.END_TO_END, **run.REPORTED}
    assert all(m["unit"] == declared[k] for k, m in report["metrics"].items())
    assert report["metrics"]["error_rate"]["value"] == 0.0
    assert report["provenance"]["n_cpus"] >= 1
    assert all(report["checks"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_per_layer_metrics(name):
    report, result = _run(name, trace=1)
    _, again = _run(name, trace=1)
    assert result["correct"] and report["checks"]["traced_identical"]
    assert report["untraced_entry_points"] == []
    units = layers.per_layer_metric_units()
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    values = {k: m["value"] for k, m in result["metrics"].items()}
    for key, unit in units.items():
        if unit == "count":
            assert values[key] == again["metrics"][key]["value"], key
    # Each layer records time on the workloads it is declared heavy on.
    for layer in layers.LAYERS:
        if name in layer.heavy_on:
            times = [values[m.name] for m in layer.metrics if m.unit == "s"]
            assert any(t > 0 for t in times), layer.module


def test_host_speed_sampler():
    with hostspeed.Sampler() as speed:
        mark = speed.mark()
        while len(speed.samples) < 4:
            hostspeed.loop()
        wall, scaled = speed.measure(mark)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert wall > 0 and scaled > 0
    # Sampling time is not counted: the interval is shorter than its wall.
    loops = sum(s for _, s in speed.samples[1:])
    assert wall < time.perf_counter() - mark[0] - 0.5 * loops
    with hostspeed.Sampler(enabled=False) as idle:
        mark = idle.mark()
        wall, scaled = idle.measure(mark)
    assert wall == scaled and idle.samples == []
    report, _ = _run("whatif", trace=0)
    metrics = report["metrics"]
    assert metrics["host_ref_s"]["value"] > 0
    assert metrics["op_p50_wall_s"]["samples"] == metrics["op_p50_s"]["samples"]


def test_untraced_and_traced_outputs_match():
    untraced, _ = _run("whatif", trace=0, seed=3)
    traced, _ = _run("whatif", trace=1, seed=3)
    assert untraced["setup_digest"] == traced["setup_digest"]
    assert untraced["output_digest"] == traced["output_digest"]


def test_refuses_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "whatif",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
