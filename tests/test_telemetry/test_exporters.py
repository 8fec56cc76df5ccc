"""Tests for the run manifest, its validator and the ASCII renderers."""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import exporters
from repro.telemetry.exporters import (
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    load_manifest,
    manifest_tables,
    validate_manifest,
    write_manifest,
    write_spans_jsonl,
)


def _instrumented_manifest():
    telemetry.configure()
    with telemetry.span("stage.alpha", n=3):
        with telemetry.span("stage.alpha.inner"):
            pass
    telemetry.counter_inc("rows", 10)
    telemetry.gauge_set("mse", 0.25)
    telemetry.histogram_observe("fit.seconds", 0.02)
    return build_manifest(
        command=["policy", "--pair", "a", "b"],
        config={"seed": 0, "timeout": float("inf")},
        seeds={"seed": 0},
        registry=telemetry.get_registry(),
        span_log=telemetry.get_span_log(),
    )


class TestBuildManifest:
    def test_structure(self):
        m = _instrumented_manifest()
        validate_manifest(m)  # no raise
        assert m["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert m["versions"]["numpy"] == np.__version__
        # One root -> its direct children are promoted to stages.
        assert [s["name"] for s in m["stages"]] == [
            "stage.alpha",
            "stage.alpha.inner",
        ]
        assert [s["parent"] for s in m["stages"]] == [None, "stage.alpha"]
        assert len(m["spans"]) == 2
        assert m["metrics"]["counters"]["rows"] == 10.0

    def test_json_safe_config_and_attrs(self):
        telemetry.configure()
        with telemetry.span("s", timeout=float("inf"), arr=np.float64(2.0)):
            pass
        m = build_manifest(
            command=[],
            config={"t": float("nan"), "xs": (1, np.int64(2))},
            seeds={},
            span_log=telemetry.get_span_log(),
        )
        text = json.dumps(m)  # strict JSON: would raise on inf/nan
        assert "Infinity" not in text and "NaN" not in text
        assert m["config"]["t"] == "nan"
        assert m["config"]["xs"] == [1, 2]
        assert m["spans"][0]["attrs"]["timeout"] == "inf"

    def test_every_root_is_a_stage(self):
        telemetry.configure()
        with telemetry.span("first"):
            with telemetry.span("first.inner"):
                pass
        with telemetry.span("second"):
            pass
        m = build_manifest(
            command=[], config={}, seeds={},
            span_log=telemetry.get_span_log(),
        )
        # Two roots: each is a stage and no children are promoted.
        assert [s["name"] for s in m["stages"]] == ["first", "second"]
        assert [s["parent"] for s in m["stages"]] == [None, None]
        assert len(m["spans"]) == 3

    def test_no_event_pointer_fields(self):
        m = _instrumented_manifest()
        assert "events_file" not in m and "n_events" not in m
        with pytest.raises(TypeError):
            build_manifest(command=[], config={}, seeds={}, n_events=1)


class TestValidateManifest:
    def test_missing_field(self):
        m = _instrumented_manifest()
        del m["stages"]
        with pytest.raises(ValueError, match="stages"):
            validate_manifest(m)

    def test_wrong_schema_version(self):
        m = _instrumented_manifest()
        m["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            validate_manifest(m)

    def test_bad_stage_and_span_rows(self):
        m = _instrumented_manifest()
        n_stages, n_spans = len(m["stages"]), len(m["spans"])
        m["stages"].append({"name": 3})
        m["spans"].append({"id": "x"})
        with pytest.raises(ValueError) as exc:
            validate_manifest(m)
        msg = str(exc.value)
        assert f"stages[{n_stages}].name" in msg
        assert f"spans[{n_spans}].id" in msg

    def test_histogram_shape_checked(self):
        m = _instrumented_manifest()
        m["metrics"]["histograms"]["fit.seconds"]["counts"] = [1]
        with pytest.raises(ValueError, match="counts"):
            validate_manifest(m)

    def test_collects_all_problems(self):
        with pytest.raises(ValueError) as exc:
            validate_manifest({"schema_version": 99})
        # One message naming every violation, not just the first.
        assert str(exc.value).count("\n") >= 5


class TestFileRoundTrips:
    def test_manifest_write_load(self, tmp_path):
        m = _instrumented_manifest()
        path = tmp_path / "manifest.json"
        write_manifest(path, m)
        assert load_manifest(path) == m

    def test_write_rejects_invalid(self, tmp_path):
        m = _instrumented_manifest()
        del m["command"]
        with pytest.raises(ValueError):
            write_manifest(tmp_path / "manifest.json", m)
        assert not (tmp_path / "manifest.json").exists()

    def test_spans_jsonl(self, tmp_path):
        telemetry.configure()
        with telemetry.span("a"):
            pass
        path = tmp_path / "spans.jsonl"
        n = write_spans_jsonl(path, telemetry.get_span_log())
        assert n == 1
        lines = [json.loads(s) for s in path.read_text().splitlines()]
        assert lines[0]["name"] == "a"


class TestRendering:
    def test_manifest_tables_sections(self):
        text = manifest_tables(_instrumented_manifest())
        assert "Run manifest" in text
        assert "Stage timings" in text
        assert "Counters and gauges" in text
        assert "Histograms" in text
        assert "stage.alpha" in text
        assert "version.numpy" in text

    def test_empty_metrics_skip_sections(self):
        telemetry.configure()
        m = build_manifest(command=[], config={}, seeds={})
        text = manifest_tables(m)
        assert "Counters and gauges" not in text
        assert "Stage timings" not in text

    def test_zero_length_stages_render(self):
        """Stages too short to time sum to zero; their share is NaN, not
        a ZeroDivisionError."""
        m = _instrumented_manifest()
        for stage in m["stages"]:
            stage["duration_s"] = 0.0
        validate_manifest(m)
        text = manifest_tables(m)
        stage_table = text.split("Stage timings")[1].split("\n\n")[0]
        assert "stage.alpha" in stage_table
        assert "| na" in stage_table

    def test_import_does_not_require_enabled_telemetry(self):
        # exporters is importable and usable with telemetry disabled.
        assert not telemetry.enabled()
        m = exporters.build_manifest(command=[], config={}, seeds={})
        validate_manifest(m)


def _with(path, value):
    """A valid manifest with the field at ``path`` replaced by ``value``."""
    m = _instrumented_manifest()
    node = m
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return m


class TestValidatorNamesEachViolation:
    def test_non_object_manifest(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_manifest(["not", "a", "dict"])

    @pytest.mark.parametrize(
        "path, value, problem",
        [
            (("created_unix",), "yesterday", "'created_unix' must be a number"),
            (("created_unix",), True, "'created_unix' must be a number"),
            (("command",), "policy", "'command' must be list"),
            (("stages",), [3], "stages[0] must be an object"),
            (("spans",), ["x"], "spans[0] must be an object"),
            (("metrics", "gauges"), [], "metrics.gauges must be a mapping"),
            (
                ("metrics", "histograms", "fit.seconds"),
                7,
                "metrics.histograms['fit.seconds'] must be an object",
            ),
            (
                ("metrics", "histograms", "fit.seconds"),
                {"edges": [1.0]},
                "needs 'edges' and 'counts' lists",
            ),
        ],
    )
    def test_violation_is_named(self, path, value, problem):
        with pytest.raises(ValueError) as exc:
            validate_manifest(_with(path, value))
        assert problem in str(exc.value)

    def test_negative_stage_duration(self):
        m = _instrumented_manifest()
        m["stages"][0]["duration_s"] = -1.0
        with pytest.raises(ValueError, match=r"stages\[0\]\.duration_s must be >= 0"):
            validate_manifest(m)

    def test_unserialisable_config_value_kept_as_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        m = build_manifest(command=[], config={"obj": Opaque()}, seeds={})
        assert m["config"]["obj"] == "<opaque>"
        json.dumps(m)
        validate_manifest(m)
