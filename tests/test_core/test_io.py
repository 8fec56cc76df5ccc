"""Tests for dataset persistence."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core import ProfileDataset, RuntimeCondition
from repro.core.io import load_dataset, save_dataset
from repro.core.profiler import Profiler, ProfilerSettings


class TestDatasetRoundtrip:
    def test_arrays_preserved(self, small_dataset, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(path, small_dataset)
        loaded = load_dataset(path)
        assert len(loaded) == len(small_dataset)
        assert np.allclose(loaded.X_flat, small_dataset.X_flat)
        assert np.allclose(loaded.traces, small_dataset.traces)
        assert np.allclose(loaded.y_ea, small_dataset.y_ea)
        assert np.allclose(loaded.y_rt_p95, small_dataset.y_rt_p95)

    def test_conditions_shared_after_load(self, small_dataset, tmp_path):
        """Rows of one run must share a condition object so that
        condition-level splits still work."""
        path = tmp_path / "ds.npz"
        save_dataset(path, small_dataset)
        loaded = load_dataset(path)
        assert len(loaded.conditions()) == len(small_dataset.conditions())
        tr, te = loaded.split_conditions(0.5, rng=0)
        assert len(tr) + len(te) == len(loaded)

    def test_infinite_timeouts_survive(self, tmp_path, small_dataset):
        import dataclasses

        row = small_dataset.rows[0]
        from repro.core import RuntimeCondition

        inf_cond = RuntimeCondition(("redis", "social"), (0.5, 0.5), (np.inf, 1.0))
        ds = ProfileDataset(rows=[dataclasses.replace(row, condition=inf_cond)])
        path = tmp_path / "inf.npz"
        save_dataset(path, ds)
        loaded = load_dataset(path)
        assert np.isinf(loaded.rows[0].condition.timeouts[0])
        assert loaded.rows[0].condition.timeouts[1] == 1.0

    def test_trained_model_matches_after_roundtrip(self, small_dataset, tmp_path):
        from repro.core import EAModel

        path = tmp_path / "ds.npz"
        save_dataset(path, small_dataset)
        loaded = load_dataset(path)
        m1 = EAModel(learner="linear").fit(small_dataset)
        m2 = EAModel(learner="linear").fit(loaded)
        assert np.allclose(
            m1.predict_dataset(small_dataset), m2.predict_dataset(loaded)
        )

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_dataset(tmp_path / "x.npz", ProfileDataset())


class TestLayoutHeader:
    """Version 3 headers record the layout the rows were profiled on,
    the counter sampling rate in the profiler settings."""

    def test_layout_roundtrip(self, e5_2650_dataset, tmp_path):
        path = tmp_path / "layout.npz"
        save_dataset(path, e5_2650_dataset)
        loaded = load_dataset(path)
        assert loaded.machine == e5_2650_dataset.machine
        assert loaded.settings == e5_2650_dataset.settings
        assert _header(path)["version"] == 3

    def test_sampling_rate_roundtrip(self, tmp_path):
        settings = ProfilerSettings(
            n_queries=100, n_windows=1, trace_ticks=8, sampling_hz=0.2
        )
        condition = RuntimeCondition(("redis", "knn"), (0.6, 0.7), (0.5, 1.0))
        dataset = Profiler(settings=settings, rng=0).profile([condition])
        path = tmp_path / "slow.npz"
        save_dataset(path, dataset)
        loaded = load_dataset(path)
        assert loaded.settings == settings
        assert loaded.settings.sampling_hz == 0.2
        assert np.array_equal(loaded.traces, dataset.traces)
        # Conditions carry no rate of their own.
        (entry,) = _header(path)["conditions"]
        assert sorted(entry) == ["timeouts", "utilizations", "workloads"]

    def test_numpy_valued_layout_saves(self, small_dataset, tmp_path):
        settings = ProfilerSettings(
            n_queries=np.int64(500), trace_ticks=np.int64(16), private_mb=np.float32(3)
        )
        path = tmp_path / "numpy.npz"
        save_dataset(path, dataclasses.replace(small_dataset, settings=settings))
        assert load_dataset(path).settings == settings

    def test_version_1_rejected(self, small_dataset, tmp_path):
        path = tmp_path / "v1.npz"
        save_dataset(path, small_dataset)
        # A version-1 header has no machine or settings entry.
        _rewrite_header(path, version=1, drop=("machine", "settings"))
        with pytest.raises(ValueError, match="version-1 .* profile it again"):
            load_dataset(path)

    def test_version_2_rejected(self, small_dataset, tmp_path):
        path = tmp_path / "v2.npz"
        save_dataset(path, small_dataset)
        # A version-2 header keeps the rate in each condition, not in
        # the settings.
        header = _header(path)
        del header["settings"]["sampling_hz"]
        for entry in header["conditions"]:
            entry["sampling_hz"] = 1.0
        _rewrite_header(path, **dict(header, version=2))
        with pytest.raises(ValueError, match="version-2 .* profile it again"):
            load_dataset(path)


def _header(path) -> dict:
    with np.load(path) as data:
        return json.loads(data["header"].tobytes().decode())


def _rewrite_header(path, drop=(), **changes) -> None:
    with np.load(path) as data:
        arrays = dict(data)
    header = json.loads(arrays["header"].tobytes().decode())
    for key in drop:
        del header[key]
    header.update(changes)
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez_compressed(path, **arrays)


def test_unknown_dataset_version_rejected(small_dataset, tmp_path):
    path = tmp_path / "d.npz"
    save_dataset(path, small_dataset)
    _rewrite_header(path, version=4)
    with pytest.raises(ValueError, match="unsupported dataset version 4"):
        load_dataset(path)
