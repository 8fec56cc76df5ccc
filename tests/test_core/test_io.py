"""Tests for dataset/forest persistence."""

import json

import numpy as np
import pytest

from repro.core import ProfileDataset
from repro.core.io import (
    load_dataset,
    load_packed_forest,
    save_dataset,
    save_packed_forest,
)
from repro.forest import PackedForest, RandomForestRegressor


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


class TestPackedForestRoundtrip:
    def test_predictions_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(150, 4))
        y = X[:, 0] * 2 + np.sin(4 * X[:, 1])
        forest = RandomForestRegressor(n_estimators=8, rng=0).fit(X, y)
        packed = PackedForest.from_forest(forest)
        path = tmp_path / "forest.npz"
        save_packed_forest(path, packed)
        loaded = load_packed_forest(path)
        Xt = rng.uniform(size=(40, 4))
        assert np.allclose(loaded.predict(Xt), packed.predict(Xt))
        assert loaded.n_trees == packed.n_trees
        assert loaded.max_depth == packed.max_depth


def test_unknown_dataset_version_rejected(small_dataset, tmp_path):
    path = tmp_path / "d.npz"
    save_dataset(path, small_dataset)
    with np.load(path) as data:
        arrays = dict(data)
    header = json.loads(arrays["header"].tobytes().decode())
    header["version"] = 2
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez_compressed(path, **arrays)
    with pytest.raises(ValueError, match="unsupported dataset version 2"):
        load_dataset(path)
