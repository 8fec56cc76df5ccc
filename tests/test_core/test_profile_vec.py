"""Tests for profile vectors, conditions and the dataset container."""

from dataclasses import fields

import numpy as np
import pytest

from repro.core import (
    DYNAMIC_FEATURE_NAMES,
    ProfileDataset,
    RuntimeCondition,
    STATIC_FEATURE_NAMES,
)
from repro.core.profile_vec import dynamic_features, static_features
from repro.core.profiler import Profiler, ProfilerSettings
from repro.testbed import default_machine, get_machine
from repro.workloads import get_workload


class TestRuntimeCondition:
    def test_valid(self):
        c = RuntimeCondition(
            workloads=("redis", "social"),
            utilizations=(0.9, 0.5),
            timeouts=(1.0, 2.0),
        )
        assert [f.name for f in fields(c)] == ["workloads", "utilizations", "timeouts"]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            RuntimeCondition(("a", "b"), (0.9,), (1.0, 2.0))

    def test_bad_utilization(self):
        with pytest.raises(ValueError):
            RuntimeCondition(("a",), (1.5,), (1.0,))

    def test_bad_timeout(self):
        with pytest.raises(ValueError):
            RuntimeCondition(("a",), (0.5,), (-1.0,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RuntimeCondition((), (), ())


class TestFeatureVectors:
    def test_static_shape_matches_names(self):
        x = static_features(
            get_workload("redis"), 1.0, 0.9, 2.0, partner=get_workload("bfs"),
            partner_timeout=2.0, partner_util=0.5, partner_gross=2.0,
        )
        assert x.shape == (len(STATIC_FEATURE_NAMES),)

    def test_solo_partner_block_zero(self):
        x = static_features(get_workload("redis"), 1.0, 0.9, 1.0)
        half = len(STATIC_FEATURE_NAMES) // 2
        assert np.all(x[half:] == 0.0)

    def test_infinite_timeout_capped(self):
        x = static_features(get_workload("redis"), np.inf, 0.9, 2.0)
        assert np.isfinite(x).all()

    def test_dynamic_shape(self):
        x = dynamic_features(1.5, 0.2, 0.3, 0.1)
        assert x.shape == (len(DYNAMIC_FEATURE_NAMES),)
        assert list(x) == [1.5, 0.2, 0.3, 0.1]

    def test_concurrent_boost_defaults_to_zero(self):
        assert dynamic_features(1.0, 0.5, 0.0)[3] == 0.0


class TestDatasetContainer:
    def test_columns(self, small_dataset):
        ds = small_dataset
        n = len(ds)
        assert n > 0
        d = len(STATIC_FEATURE_NAMES) + len(DYNAMIC_FEATURE_NAMES)
        assert ds.X_flat.shape == (n, d)
        assert ds.traces.shape[0] == n
        assert ds.traces.shape[1] == 2 * 29
        assert ds.y_ea.shape == (n,)
        assert ds.y_rt_mean.shape == (n,)
        assert np.all(ds.y_rt_mean > 0)

    def test_split_conditions_partitions(self, small_dataset):
        tr, te = small_dataset.split_conditions(0.4, rng=0)
        assert len(tr) + len(te) == len(small_dataset)
        n_conditions = len(small_dataset.conditions())
        assert len(tr.conditions()) == int(0.4 * n_conditions)
        # Every window of a run lands on one side.
        train_ids = {id(c) for c in tr.conditions()}
        assert not train_ids & {id(c) for c in te.conditions()}

    def test_split_conditions_takes_seed_or_generator(self, small_dataset):
        by_seed = small_dataset.split_conditions(0.5, rng=7)
        by_generator = small_dataset.split_conditions(
            0.5, rng=np.random.default_rng(7)
        )
        for a, b in zip(by_seed, by_generator):
            assert [id(r) for r in a.rows] == [id(r) for r in b.rows]

    def test_split_by_condition(self, mixed_pair_dataset):
        jac, rest = mixed_pair_dataset.split_by_condition(
            lambda c: "jacobi" in c.workloads
        )
        assert len(jac) > 0 and len(rest) > 0
        assert all("jacobi" in r.condition.workloads for r in jac.rows)
        assert all("jacobi" not in r.condition.workloads for r in rest.rows)

    def test_subset(self, small_dataset):
        sub = small_dataset.subset([0, 1])
        assert len(sub) == 2
        assert sub.rows[0] is small_dataset.rows[0]


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, float("nan")])
def test_split_conditions_rejects_fraction_outside_open_interval(
    small_dataset, fraction
):
    with pytest.raises(ValueError, match="train_fraction"):
        small_dataset.split_conditions(fraction, rng=0)


class TestLayout:
    """A dataset records the layout it was profiled on and keeps it
    through every subset and split."""

    def test_profile_records_layout(self, e5_2650_dataset):
        assert e5_2650_dataset.machine == get_machine("e5-2650")
        assert e5_2650_dataset.settings == ProfilerSettings(
            n_queries=200, n_windows=2, trace_ticks=8, private_mb=3.0, shared_mb=1.5
        )

    def test_subset_and_splits_carry_layout(self, e5_2650_dataset):
        ds = e5_2650_dataset
        parts = [
            ds.subset([0, 1]),
            *ds.split_conditions(0.5, rng=0),
            *ds.split_by_condition(lambda c: c.utilizations[0] > 0.5),
        ]
        for part in parts:
            assert part.machine is ds.machine
            assert part.settings is ds.settings

    def test_hand_built_dataset_gets_profiler_defaults(self, small_dataset):
        ds = ProfileDataset(rows=list(small_dataset.rows))
        profiler = Profiler()
        assert ds.machine == profiler.machine == default_machine()
        assert ds.settings == profiler.settings == ProfilerSettings()
