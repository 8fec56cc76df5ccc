"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main

#: ``repro simulate --pair redis knn`` with every other flag at its default
#: (trailing blanks stripped).
DEFAULT_TABLE = """\
Collocation on e5-2683 at 90% load (response times relative to each service's baseline)
service | mean RT | p50   | p95   | boost frac | EA
--------+---------+-------+-------+------------+------
redis   | 2.502   | 2.180 | 5.585 | 0.000      | 0.500
knn     | 2.958   | 2.212 | 7.812 | 0.000      | 0.500
"""


class TestInfoCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "redis" in out and "spkmeans" in out

    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "e5-2683" in out and "platinum-8275-s0" in out


class TestSimulate:
    def test_basic_run(self, capsys):
        rc = main(
            [
                "simulate",
                "--pair", "jacobi", "bfs",
                "--timeouts", "1.0", "1.5",
                "--queries", "200",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "jacobi" in out and "p95" in out and "EA" in out

    def test_inf_timeout(self, capsys):
        rc = main(
            [
                "simulate",
                "--pair", "jacobi", "bfs",
                "--timeouts", "inf", "never",
                "--queries", "150",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # Boost never fires.
        assert "0.000" in out

    def test_timeout_count_mismatch(self, capsys):
        rc = main(
            ["simulate", "--pair", "jacobi", "bfs", "--timeouts", "1.0",
             "--queries", "100"]
        )
        assert rc == 2
        assert "one timeout per workload" in capsys.readouterr().err

    def test_unknown_workload(self, capsys):
        rc = main(["simulate", "--pair", "mysql", "bfs", "--queries", "100"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_machine(self, capsys):
        rc = main(
            ["simulate", "--pair", "jacobi", "bfs", "--machine", "epyc",
             "--queries", "100"]
        )
        assert rc == 2

    def test_default_table(self, capsys):
        """The run goes through the profiling harness (default layout,
        warmup and seed) and prints the table it always printed."""
        assert main(["simulate", "--pair", "redis", "knn"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.rstrip() for line in out] == DEFAULT_TABLE.splitlines()

    def test_query_count_checked_by_the_settings(self, capsys):
        rc = main(["simulate", "--pair", "redis", "knn", "--queries", "0"])
        assert rc == 2
        assert "n_queries must be >= 1" in capsys.readouterr().err

    def test_zero_private_reservation_rejected(self, capsys):
        """A 0 MB reservation would still get one way per service; the
        profiler settings reject it, as they do for a campaign."""
        rc = main(["simulate", "--pair", "redis", "knn", "--private-mb", "0"])
        assert rc == 2
        assert "private_mb must be finite and > 0" in capsys.readouterr().err


class TestNumericArguments:
    """Non-finite or out-of-range numbers are usage errors (exit 2)
    raised by argparse, before any library code runs."""

    @pytest.mark.parametrize("command", ["simulate", "profile", "policy"])
    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--utilization", "nan"),
            ("--utilization", "inf"),
            ("--utilization", "0"),
            ("--utilization", "1"),
            ("--utilization", "1.5"),
            ("--private-mb", "nan"),
            ("--private-mb", "inf"),
            ("--private-mb", "-1"),
            ("--shared-mb", "nan"),
            ("--shared-mb", "inf"),
            ("--shared-mb", "-0.5"),
        ],
    )
    def test_bad_value_is_usage_error(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--pair", "jacobi", "bfs", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_nan_timeout_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--pair", "jacobi", "bfs", "--timeouts", "nan", "1"])
        assert exc.value.code == 2
        assert "argument --timeouts" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value", [("--utilization", "0.5"), ("--shared-mb", "0")]
    )
    def test_boundary_values_accepted(self, flag, value, capsys):
        rc = main(
            ["simulate", "--pair", "jacobi", "bfs", "--queries", "100", flag, value]
        )
        assert rc == 0


class TestProfile:
    def test_writes_loadable_dataset(self, tmp_path, capsys):
        from repro.core import load_dataset

        out = tmp_path / "prof.npz"
        rc = main(
            [
                "profile",
                "--pair", "redis", "knn",
                "--conditions", "2",
                "--queries", "200",
                "--out", str(out),
            ]
        )
        assert rc == 0
        ds = load_dataset(out)
        assert len(ds) > 0
        assert ds.traces.shape[1] == 58
        assert len(ds.conditions()) == 2


class TestPolicy:
    def test_recommends_timeouts(self, capsys):
        rc = main(
            [
                "policy",
                "--pair", "redis", "knn",
                "--conditions", "4",
                "--queries", "250",
                "--learner", "random_forest",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "recommended timeouts" in out

    def test_verify_flag(self, capsys):
        rc = main(
            [
                "policy",
                "--pair", "redis", "knn",
                "--conditions", "4",
                "--queries", "250",
                "--learner", "linear",
                "--verify",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Verification on the testbed" in out

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_train_jobs_is_usage_error(
        self, value, capsys, monkeypatch
    ):
        from repro.core.profiler import Profiler

        calls = []
        monkeypatch.setattr(
            Profiler, "profile", lambda self, *a, **k: calls.append(a)
        )
        with pytest.raises(SystemExit) as exc:
            main(["policy", "--pair", "redis", "knn", "--train-jobs", value])
        assert exc.value.code == 2
        assert "argument --train-jobs" in capsys.readouterr().err
        assert calls == []  # rejected before any profiling

    def test_train_jobs_parses_a_positive_int(self):
        args = build_parser().parse_args(
            ["policy", "--pair", "redis", "knn", "--train-jobs", "3"]
        )
        assert args.train_jobs == 3

    def test_help_lists_train_jobs_only(self, capsys):
        # Forest training keeps its pool; the timeout search has none.
        with pytest.raises(SystemExit) as exc:
            main(["policy", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--train-jobs" in out
        assert "--jobs" not in out


class TestReservationFlags:
    """``--private-mb``/``--shared-mb`` reach every stage they configure."""

    def test_profile_without_sharing_has_unit_gross_increase(self, tmp_path, capsys):
        from repro.core import load_dataset
        from repro.core.profile_vec import STATIC_FEATURE_NAMES

        out = tmp_path / "prof.npz"
        rc = main(
            [
                "profile",
                "--pair", "redis", "knn",
                "--conditions", "2",
                "--queries", "150",
                "--shared-mb", "0",
                "--out", str(out),
            ]
        )
        assert rc == 0
        col = STATIC_FEATURE_NAMES.index("own_gross_increase")
        assert np.all(load_dataset(out).X_flat[:, col] == 1.0)

    def test_policy_hands_flags_to_every_stage(self, monkeypatch, capsys):
        import repro.cli as cli
        from repro.core.profiler import Profiler

        built, arguments = {}, {}

        def spy(name, cls):
            def make(*args, **kwargs):
                built[name] = cls(*args, **kwargs)
                arguments[name] = args
                return built[name]

            monkeypatch.setattr(cli, name, make)

        for name in ("Profiler", "StacModel", "RuntimeEvaluator"):
            spy(name, getattr(cli, name))
        profiled = []
        real_profile = Profiler.profile

        def profile(self, conditions):
            profiled.append(real_profile(self, conditions))
            return profiled[-1]

        monkeypatch.setattr(Profiler, "profile", profile)
        rc = main(
            [
                "policy",
                "--pair", "redis", "knn",
                "--conditions", "2",
                "--queries", "100",
                "--learner", "linear",
                "--private-mb", "4",
                "--shared-mb", "0",
                "--verify",
            ]
        )
        assert rc == 0
        for settings in (built["Profiler"].settings, built["StacModel"].settings):
            assert (settings.private_mb, settings.shared_mb) == (4.0, 0.0)
        # The testbed truth is laid out by the very dataset Stage 1
        # profiled, not by a second reading of the flags.
        assert arguments["RuntimeEvaluator"][0] is profiled[0]
        settings = built["RuntimeEvaluator"].settings
        assert (settings.private_mb, settings.shared_mb) == (4.0, 0.0)

    def test_policy_zero_private_rejected_before_profiling(self, monkeypatch, capsys):
        from repro.core.profiler import Profiler

        calls = []
        monkeypatch.setattr(
            Profiler, "profile", lambda self, *a, **k: calls.append(a)
        )
        rc = main(["policy", "--pair", "redis", "knn", "--private-mb", "0"])
        assert rc == 2
        assert "private_mb" in capsys.readouterr().err
        assert calls == []


class TestTelemetry:
    @pytest.fixture(autouse=True)
    def _reset_telemetry(self):
        from repro import telemetry

        telemetry.disable()
        yield
        telemetry.disable()

    def _simulate(self, tmp_path, *extra):
        return main(
            [
                "simulate",
                "--pair", "jacobi", "bfs",
                "--queries", "120",
                "--trace-dir", str(tmp_path / "t"),
                *extra,
            ]
        )

    def test_flag_writes_valid_manifest(self, tmp_path, capsys):
        from repro.telemetry.exporters import load_manifest

        assert self._simulate(tmp_path, "--telemetry") == 0
        out = capsys.readouterr().out
        assert "telemetry: wrote" in out
        manifest = load_manifest(tmp_path / "t" / "manifest.json")
        assert manifest["command"][0] == "simulate"
        assert manifest["seeds"]["seed"] == 0
        assert [s["name"] for s in manifest["stages"]] == ["repro.simulate"]
        assert (tmp_path / "t" / "spans.jsonl").exists()
        assert "events_file" not in manifest

    def test_global_state_restored_after_run(self, tmp_path, capsys):
        from repro import telemetry

        assert self._simulate(tmp_path, "--telemetry") == 0
        assert not telemetry.enabled()

    def test_output_identical_with_and_without(self, tmp_path, capsys):
        assert self._simulate(tmp_path) == 0
        plain = capsys.readouterr().out
        assert self._simulate(tmp_path, "--telemetry") == 0
        with_tel = capsys.readouterr().out
        assert with_tel.startswith(plain)
        assert "telemetry: wrote" in with_tel


class TestReport:
    def _write_manifest(self, tmp_path):
        return main(
            [
                "simulate",
                "--pair", "jacobi", "bfs",
                "--queries", "120",
                "--telemetry",
                "--trace-dir", str(tmp_path / "t"),
            ]
        )

    def test_renders_manifest_and_spans(self, tmp_path, capsys):
        assert self._write_manifest(tmp_path) == 0
        capsys.readouterr()
        rc = main(["report", str(tmp_path / "t" / "manifest.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Run manifest" in out
        assert "repro.simulate" in out
        assert "Spans (" in out

    def test_renders_manifest_with_old_event_fields(self, tmp_path, capsys):
        """Manifests written while queue event traces existed carry two
        optional fields; they still load and render."""
        import json

        from repro.telemetry.exporters import MANIFEST_SCHEMA_VERSION

        assert self._write_manifest(tmp_path) == 0
        path = tmp_path / "t" / "manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION == 1
        manifest.update(events_file="events.jsonl", n_events=12)
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Run manifest" in out
        assert "repro.simulate" in out

    def test_missing_manifest(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "no such manifest" in capsys.readouterr().err

    def test_invalid_manifest_rejected(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text('{"schema_version": 1}')
        rc = main(["report", str(bad)])
        assert rc == 2
        assert "invalid run manifest" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "profile", "policy"])
def test_no_queue_event_trace_flag(command, capsys):
    """Telemetry records spans and counters only; there is no per-query
    queue event trace to switch on."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--pair", "redis", "knn", "--trace-queue-events"])
    assert exc.value.code == 2
    assert "--trace-queue-events" in capsys.readouterr().err


def test_report_has_no_events_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", str(tmp_path / "manifest.json"), "--events", "e.jsonl"])
    assert exc.value.code == 2
    assert "--events" in capsys.readouterr().err


def test_policy_has_no_forest_strategy_flag(capsys):
    """The forests have one split search, so there is nothing to select."""
    with pytest.raises(SystemExit) as exc:
        main(["policy", "--pair", "redis", "knn", "--forest-strategy", "exact"])
    assert exc.value.code == 2
    assert "--forest-strategy" in capsys.readouterr().err
