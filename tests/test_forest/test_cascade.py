"""Tests for cascade levels and the deep forest facade."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.forest import (
    CascadeForest,
    CompletelyRandomForestRegressor,
    DeepForestRegressor,
    MultiGrainScanner,
    RandomForestRegressor,
    RegressionTree,
)
from repro.forest.cascade import _collect_out_of_fold, _pack_group, _plan_cross_fit
from repro.forest.parallel import fit_plans

from .forest_oracle import cascade_predict_oracle, concept_features_oracle


def hidden_interaction(n=240, rng=0):
    """y depends on an interaction of two features — the kind of 'concept'
    cascades capture (Figure 3)."""
    r = np.random.default_rng(rng)
    X = r.uniform(size=(n, 6))
    y = np.where((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5), 1.0, 0.0)
    return X, y + r.normal(0, 0.05, n)


def cross_fit_predict(make_model, X, y, k=3, rng=None, n_jobs=1):
    """Out-of-fold predictions of one model: the three cross-fit steps a
    cascade level runs for all its forests at once."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    models, folds, plans = _plan_cross_fit(make_model, X, y, k, rng)
    fit_plans(plans, n_jobs=n_jobs)
    return _collect_out_of_fold(models, folds, X)


class TestCrossFit:
    def test_shape_and_out_of_fold(self):
        X, y = hidden_interaction(90)
        pred = cross_fit_predict(
            lambda: RandomForestRegressor(n_estimators=5, rng=0), X, y, k=3, rng=1
        )
        assert pred.shape == (90,)

    def test_no_leakage_vs_insample(self):
        """Out-of-fold error must be larger than training error on noise."""
        r = np.random.default_rng(2)
        X = r.uniform(size=(120, 4))
        y = r.normal(size=120)  # pure noise
        oof = cross_fit_predict(
            lambda: RandomForestRegressor(n_estimators=10, rng=0), X, y, k=3, rng=3
        )
        model = RandomForestRegressor(n_estimators=10, rng=0).fit(X, y)
        insample = model.predict(X)
        err_oof = np.mean((oof - y) ** 2)
        err_in = np.mean((insample - y) ** 2)
        assert err_oof > err_in

    def test_validation(self):
        X, y = hidden_interaction(10)
        with pytest.raises(ValueError):
            cross_fit_predict(lambda: None, X, y, k=1)
        with pytest.raises(ValueError):
            cross_fit_predict(lambda: None, X[:2], y[:2], k=3)


class TestCascade:
    def test_fits_interaction(self):
        X, y = hidden_interaction(300, rng=4)
        Xt, yt = hidden_interaction(150, rng=5)
        c = CascadeForest(n_levels=2, forests_per_level=2, n_estimators=15, rng=0)
        c.fit(X, y)
        err = np.mean((c.predict(Xt) - yt) ** 2)
        assert err < np.var(yt) * 0.3

    def test_concept_feature_shape(self):
        X, y = hidden_interaction(100, rng=6)
        c = CascadeForest(n_levels=3, forests_per_level=2, n_estimators=5, rng=0)
        c.fit(X, y)
        feats = c.concept_features(X[:20])
        assert feats.shape == (20, 3 * 2)

    def test_concepts_track_target(self):
        X, y = hidden_interaction(260, rng=7)
        c = CascadeForest(n_levels=2, forests_per_level=2, n_estimators=15, rng=0)
        c.fit(X, y)
        feats = c.concept_features(X)
        corr = np.corrcoef(feats.mean(axis=1), y)[0, 1]
        assert corr > 0.6

    def test_unfitted_raises(self):
        c = CascadeForest()
        with pytest.raises(RuntimeError):
            c.predict(np.zeros((1, 3)))
        with pytest.raises(RuntimeError):
            c.concept_features(np.zeros((1, 3)))

    def test_reproducible(self):
        X, y = hidden_interaction(80, rng=8)
        p1 = (
            CascadeForest(n_levels=1, forests_per_level=2, n_estimators=4, rng=9)
            .fit(X, y)
            .predict(X)
        )
        p2 = (
            CascadeForest(n_levels=1, forests_per_level=2, n_estimators=4, rng=9)
            .fit(X, y)
            .predict(X)
        )
        assert np.array_equal(p1, p2)

    def test_validation(self):
        with pytest.raises(ValueError):
            CascadeForest(n_levels=0)
        with pytest.raises(ValueError):
            CascadeForest().fit(np.zeros((4, 2)), np.zeros(5))

    def test_level_scores_recorded(self):
        X, y = hidden_interaction(120, rng=20)
        c = CascadeForest(n_levels=3, forests_per_level=2, n_estimators=5, rng=0)
        c.fit(X, y)
        assert len(c._levels) == len(c.level_scores_) == 3
        assert all(s >= 0 for s in c.level_scores_)

    def test_level_scores_reach_telemetry(self):
        X, y = hidden_interaction(90, rng=23)
        reg = telemetry.configure()
        try:
            c = CascadeForest(
                n_levels=3, forests_per_level=2, n_estimators=4, rng=0
            ).fit(X, y)
            spans = telemetry.get_span_log().by_name("stage2.cascade.level")
        finally:
            telemetry.disable()
        assert reg.counter("cascade.levels_grown") == 3
        assert [reg.gauge(f"cascade.level{i}.oof_mse") for i in range(3)] == (
            c.level_scores_
        )
        assert [s.attrs["oof_mse"] for s in spans] == c.level_scores_


class TestDeepForest:
    def test_flat_only(self):
        X, y = hidden_interaction(200, rng=10)
        df = DeepForestRegressor(
            windows=None, n_levels=1, forests_per_level=2, n_estimators=10, rng=0
        )
        df.fit(X, None, y)
        assert df.predict(X, None).shape == (200,)

    def test_traces_only(self):
        r = np.random.default_rng(11)
        traces = r.normal(size=(60, 8, 8))
        y = traces[:, 2:4, 2:4].mean(axis=(1, 2))
        df = DeepForestRegressor(
            windows=[(3, 3)],
            mgs_estimators=5,
            n_levels=1,
            forests_per_level=2,
            n_estimators=10,
            rng=0,
        )
        df.fit(None, traces, y)
        pred = df.predict(None, traces)
        assert np.corrcoef(pred, y)[0, 1] > 0.8

    def test_combined_inputs(self):
        r = np.random.default_rng(12)
        X = r.uniform(size=(80, 3))
        traces = r.normal(size=(80, 6, 6))
        y = X[:, 0] + traces[:, 1:3, 1:3].mean(axis=(1, 2))
        df = DeepForestRegressor(
            windows=[(3, 3)],
            mgs_estimators=5,
            n_levels=1,
            forests_per_level=2,
            n_estimators=10,
            rng=0,
        )
        df.fit(X, traces, y)
        assert df.predict(X, traces).shape == (80,)
        assert df.concept_features(X, traces).shape[0] == 80

    def test_no_inputs_rejected(self):
        df = DeepForestRegressor(rng=0)
        with pytest.raises(ValueError):
            df.fit(None, None, np.zeros(3))

    def test_unfitted_raises(self):
        df = DeepForestRegressor()
        with pytest.raises(RuntimeError):
            df.predict(np.zeros((1, 2)), None)

    def test_unfitted_concept_features_raise(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            DeepForestRegressor().concept_features(np.zeros((1, 2)), None)


@pytest.mark.parametrize(
    "make",
    [
        RegressionTree,
        RandomForestRegressor,
        CompletelyRandomForestRegressor,
        MultiGrainScanner,
        CascadeForest,
        DeepForestRegressor,
    ],
)
def test_forests_have_one_split_search(make):
    with pytest.raises(TypeError, match="strategy"):
        make(strategy="exact")


@pytest.mark.parametrize("kwargs", [{"early_stop": True}, {"patience": 2}])
def test_cascade_has_no_early_stop(kwargs):
    with pytest.raises(TypeError, match=next(iter(kwargs))):
        CascadeForest(**kwargs)


@pytest.mark.parametrize("n_jobs", [0, -1])
def test_cascade_rejects_non_positive_n_jobs(n_jobs):
    with pytest.raises(ValueError, match="n_jobs"):
        CascadeForest(n_jobs=n_jobs)


def test_cascade_predict_checks_feature_width():
    X, y = hidden_interaction(60, rng=13)
    c = CascadeForest(n_levels=1, forests_per_level=2, n_estimators=4, rng=0)
    c.fit(X, y)
    with pytest.raises(ValueError, match="expected 6 features, got 5"):
        c.predict(X[:, :5])


def test_deep_forest_rejects_1d_flat_features():
    with pytest.raises(ValueError, match="2-D"):
        DeepForestRegressor(windows=None, rng=0).fit(np.zeros(4), None, np.zeros(4))


def test_deep_forest_without_windows_reads_flattened_traces():
    r = np.random.default_rng(14)
    traces = r.normal(size=(50, 4, 5))
    y = traces[:, 1, :].mean(axis=1)
    params = dict(windows=None, n_levels=1, forests_per_level=2, n_estimators=6)
    on_traces = DeepForestRegressor(rng=0, **params).fit(None, traces, y)
    on_flat = DeepForestRegressor(rng=0, **params).fit(
        traces.reshape(50, -1), None, y
    )
    assert np.array_equal(
        on_traces.predict(None, traces),
        on_flat.predict(traces.reshape(50, -1), None),
    )


# -- one packed traversal per level ------------------------------------------


@pytest.fixture(scope="module")
def packed_cascade():
    X, y = hidden_interaction(120, rng=30)
    # Twelve trees per forest: a per-forest mean taken over the wrong
    # block of trees, or summed in another order, would show.
    return CascadeForest(
        n_levels=2, forests_per_level=3, n_estimators=12, rng=1
    ).fit(X, y)


class TestLevelPacks:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 9))
    def test_matches_per_forest_oracle(self, packed_cascade, seed, n):
        X = np.random.default_rng(seed).uniform(-0.2, 1.2, size=(n, 6))
        assert (
            packed_cascade.predict(X).tobytes()
            == cascade_predict_oracle(packed_cascade, X).tobytes()
        )
        assert (
            packed_cascade.concept_features(X).tobytes()
            == concept_features_oracle(packed_cascade, X).tobytes()
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), data=st.data())
    def test_row_alone_equals_row_in_batch(self, packed_cascade, seed, n, data):
        X = np.random.default_rng(seed).uniform(-0.2, 1.2, size=(n, 6))
        i = data.draw(st.integers(0, n - 1))
        for method in (packed_cascade.predict, packed_cascade.concept_features):
            assert method(X[i : i + 1]).tobytes() == method(X)[i : i + 1].tobytes()

    def test_one_pack_per_level_and_output(self, packed_cascade):
        groups = [lv.forests for lv in packed_cascade._levels]
        packs = [lv.pack for lv in packed_cascade._levels]
        groups.append(packed_cascade._output_forests)
        packs.append(packed_cascade._output_pack)
        for forests, pack in zip(groups, packs):
            trees = [t for f in forests for t in f.trees_]
            assert pack.n_trees == len(trees) == 3 * 12
            assert pack.n_nodes == sum(t.n_nodes for t in trees)

    def test_packs_rebuilt_by_a_second_fit(self):
        X1, y1 = hidden_interaction(90, rng=31)
        X2, y2 = hidden_interaction(90, rng=32)
        c = CascadeForest(n_levels=2, forests_per_level=2, n_estimators=10, rng=2)
        c.fit(X1, y1)
        first = [lv.pack for lv in c._levels] + [c._output_pack]
        c.fit(X2, 1.0 - y2)
        second = [lv.pack for lv in c._levels] + [c._output_pack]
        assert not any(a is b for a, b in zip(first, second))
        assert c.predict(X2).tobytes() == cascade_predict_oracle(c, X2).tobytes()
        assert (
            c.concept_features(X2).tobytes()
            == concept_features_oracle(c, X2).tobytes()
        )

    def test_group_needs_equal_tree_counts(self):
        X, y = hidden_interaction(40, rng=33)
        forests = [
            RandomForestRegressor(n_estimators=k, rng=0).fit(X, y) for k in (3, 4)
        ]
        with pytest.raises(AssertionError, match="tree count"):
            _pack_group(forests)
