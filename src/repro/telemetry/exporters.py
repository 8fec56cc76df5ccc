"""Telemetry exporters: the JSONL span log, the JSON run-manifest, ASCII tables.

A *run manifest* is the one-file summary of an instrumented pipeline
run: configuration, seeds, library versions, stage timings (the span
log's root spans), metric snapshots and the full span list.
``repro report <manifest>`` renders it back as the ASCII tables
:mod:`repro.analysis.reporting` produces for every other artifact in
this repo.

The manifest schema is validated structurally (no external jsonschema
dependency): :func:`validate_manifest` raises ``ValueError`` naming
every violation it finds.
"""

from __future__ import annotations

import json
import math
import platform
import sys
import time
from pathlib import Path

from repro.analysis.reporting import format_table

#: Bumped whenever a required manifest field changes shape.
MANIFEST_SCHEMA_VERSION = 1

#: Required top-level manifest fields and their types.
MANIFEST_SCHEMA: dict[str, type] = {
    "schema_version": int,
    "created_unix": float,
    "command": list,
    "config": dict,
    "seeds": dict,
    "versions": dict,
    "stages": list,
    "metrics": dict,
    "spans": list,
}

_STAGE_FIELDS = {"name": str, "start": float, "duration_s": float}
_SPAN_FIELDS = {"id": int, "name": str, "start": float, "duration": float}
_METRIC_SECTIONS = ("counters", "gauges", "histograms")


def _json_safe(value):
    """Best-effort conversion of config values to JSON-representable
    ones (numpy scalars -> python, inf/nan -> strings, else repr)."""
    if isinstance(value, (str, bool, type(None))):
        return value
    if isinstance(value, (int, float)):
        v = float(value)
        if math.isnan(v) or math.isinf(v):
            return str(v)
        return value if isinstance(value, int) else v
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    try:  # numpy scalars expose item()
        return _json_safe(value.item())
    except AttributeError:
        return repr(value)


def build_manifest(
    command,
    config: dict,
    seeds: dict,
    registry=None,
    span_log=None,
) -> dict:
    """Assemble a run manifest from the active telemetry state.

    ``stages`` are the span log's root spans (one per top-level pipeline
    stage); the full span list rides along for drill-down.
    """
    import numpy as np

    import repro

    spans = span_log.snapshot() if span_log is not None else []
    for s in spans:
        # Attrs are free-form; strict-JSON-proof them (inf timeouts etc).
        s["attrs"] = _json_safe(s.get("attrs", {}))
    stages = []
    if span_log is not None:
        roots = sorted(
            (s for s in spans if s["parent_id"] is None), key=lambda s: s["id"]
        )
        picked = [(s, None) for s in roots]
        if len(roots) == 1:
            # A single root (the CLI wraps each command in one) carries
            # no breakdown of its own; its direct children are the
            # pipeline stages.
            root = roots[0]
            picked += [
                (s, root["name"])
                for s in sorted(
                    (s for s in spans if s["parent_id"] == root["id"]),
                    key=lambda s: s["id"],
                )
            ]
        for s, parent in picked:
            stages.append(
                {
                    "name": s["name"],
                    "start": float(s["start"]),
                    "duration_s": float(s["duration"]),
                    "attrs": s.get("attrs", {}),
                    "parent": parent,
                }
            )
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created_unix": float(time.time()),
        "command": [str(c) for c in command],
        "config": _json_safe(config),
        "seeds": _json_safe(seeds),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "repro": repro.__version__,
        },
        "stages": stages,
        "metrics": registry.snapshot()
        if registry is not None
        else {"counters": {}, "gauges": {}, "histograms": {}},
        "spans": spans,
    }
    return manifest


def validate_manifest(manifest: dict) -> None:
    """Structurally validate a manifest; raises ``ValueError`` listing
    every violation."""
    problems: list[str] = []
    if not isinstance(manifest, dict):
        raise ValueError("manifest must be a JSON object")
    for key, typ in MANIFEST_SCHEMA.items():
        if key not in manifest:
            problems.append(f"missing required field {key!r}")
        elif typ is float:
            if not isinstance(manifest[key], (int, float)) or isinstance(
                manifest[key], bool
            ):
                problems.append(f"field {key!r} must be a number")
        elif not isinstance(manifest[key], typ):
            problems.append(f"field {key!r} must be {typ.__name__}")
    if isinstance(manifest.get("schema_version"), int):
        if manifest["schema_version"] != MANIFEST_SCHEMA_VERSION:
            problems.append(
                f"schema_version {manifest['schema_version']} != "
                f"{MANIFEST_SCHEMA_VERSION}"
            )
    for i, stage in enumerate(manifest.get("stages") or []):
        if not isinstance(stage, dict):
            problems.append(f"stages[{i}] must be an object")
            continue
        for f, typ in _STAGE_FIELDS.items():
            v = stage.get(f)
            ok = isinstance(v, (int, float)) if typ is float else isinstance(v, typ)
            if v is None or not ok or isinstance(v, bool):
                problems.append(f"stages[{i}].{f} must be {typ.__name__}")
        if isinstance(stage.get("duration_s"), (int, float)) and (
            stage["duration_s"] < 0
        ):
            problems.append(f"stages[{i}].duration_s must be >= 0")
    for i, span in enumerate(manifest.get("spans") or []):
        if not isinstance(span, dict):
            problems.append(f"spans[{i}] must be an object")
            continue
        for f, typ in _SPAN_FIELDS.items():
            v = span.get(f)
            ok = isinstance(v, (int, float)) if typ is float else isinstance(v, typ)
            if v is None or not ok or isinstance(v, bool):
                problems.append(f"spans[{i}].{f} must be {typ.__name__}")
    metrics = manifest.get("metrics")
    if isinstance(metrics, dict):
        for section in _METRIC_SECTIONS:
            if not isinstance(metrics.get(section), dict):
                problems.append(f"metrics.{section} must be a mapping")
        for name, h in (metrics.get("histograms") or {}).items():
            if not isinstance(h, dict):
                problems.append(f"metrics.histograms[{name!r}] must be an object")
                continue
            edges, counts = h.get("edges"), h.get("counts")
            if not isinstance(edges, list) or not isinstance(counts, list):
                problems.append(
                    f"metrics.histograms[{name!r}] needs 'edges' and 'counts' lists"
                )
            elif len(counts) != len(edges) + 1:
                problems.append(
                    f"metrics.histograms[{name!r}]: expected "
                    f"{len(edges) + 1} counts for {len(edges)} edges, "
                    f"got {len(counts)}"
                )
    if problems:
        raise ValueError(
            "invalid run manifest:\n  - " + "\n  - ".join(problems)
        )


def write_manifest(path, manifest: dict) -> None:
    validate_manifest(manifest)
    Path(path).write_text(json.dumps(manifest, indent=2) + "\n")


def load_manifest(path) -> dict:
    manifest = json.loads(Path(path).read_text())
    validate_manifest(manifest)
    return manifest


def write_spans_jsonl(path, span_log) -> int:
    """One JSON object per completed span; returns the span count."""
    records = span_log.snapshot() if span_log is not None else []
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    return len(records)


# -- ASCII rendering -----------------------------------------------------------


def _stage_rows(manifest: dict) -> list[list]:
    # Root stages partition the run; child stages (promoted under a
    # single-root manifest) are percentages of the same total, shown
    # indented under their parent.
    total = sum(
        s["duration_s"] for s in manifest["stages"] if s.get("parent") is None
    ) or float("nan")
    return [
        [
            ("  " if s.get("parent") else "") + s["name"],
            s["duration_s"],
            100.0 * s["duration_s"] / total,
        ]
        for s in manifest["stages"]
    ]


def manifest_tables(manifest: dict) -> str:
    """Render a manifest as the ASCII tables ``repro report`` prints."""
    blocks: list[str] = []
    versions = manifest["versions"]
    blocks.append(
        format_table(
            ["field", "value"],
            [
                ["command", " ".join(manifest["command"]) or "(none)"],
                ["created_unix", manifest["created_unix"]],
                ["schema_version", manifest["schema_version"]],
                *[[f"version.{k}", v] for k, v in sorted(versions.items())],
                *[[f"seed.{k}", v] for k, v in sorted(manifest["seeds"].items())],
            ],
            title="Run manifest",
        )
    )
    if manifest["stages"]:
        blocks.append(
            format_table(
                ["stage", "seconds", "% of run"],
                _stage_rows(manifest),
                title="Stage timings",
                precision=4,
            )
        )
    metrics = manifest["metrics"]
    scalar_rows = [
        ["counter", k, v] for k, v in sorted(metrics["counters"].items())
    ] + [["gauge", k, v] for k, v in sorted(metrics["gauges"].items())]
    if scalar_rows:
        blocks.append(
            format_table(
                ["kind", "name", "value"],
                scalar_rows,
                title="Counters and gauges",
            )
        )
    hist_rows = []
    for name, h in sorted(metrics["histograms"].items()):
        count = h["count"]
        mean = h["sum"] / count if count else float("nan")
        hist_rows.append(
            [
                name,
                count,
                mean,
                h["min"] if h["min"] is not None else float("nan"),
                h["max"] if h["max"] is not None else float("nan"),
            ]
        )
    if hist_rows:
        blocks.append(
            format_table(
                ["histogram", "count", "mean", "min", "max"],
                hist_rows,
                title="Histograms",
                precision=6,
            )
        )
    n_spans = len(manifest["spans"])
    if n_spans:
        per_name: dict[str, list[float]] = {}
        for s in manifest["spans"]:
            per_name.setdefault(s["name"], []).append(s["duration"])
        blocks.append(
            format_table(
                ["span", "count", "total s", "mean s"],
                [
                    [name, len(ds), sum(ds), sum(ds) / len(ds)]
                    for name, ds in sorted(per_name.items())
                ],
                title=f"Spans ({n_spans} total)",
                precision=6,
            )
        )
    return "\n\n".join(blocks)
