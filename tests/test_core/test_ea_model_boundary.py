"""EAModel's public boundary: keyword overrides, training data and
predict inputs.

Every learner accepts exactly the :class:`DeepForestRegressor` fields as
overrides, so a misspelt key fails at construction instead of being
dropped.  Non-finite training data fails at ``fit``, naming the field,
instead of surfacing later as a non-finite prediction.  A learner
fitted on traces refuses to predict without them.  A row's prediction
does not depend on the batch it is predicted in.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EAModel, StacModel
from repro.core.ea_model import LEARNERS
from repro.forest import DeepForestRegressor

#: Which dataset field each ProfileRow attribute feeds.
ROW_FIELD_TO_INPUT = {
    "x_static": "X_flat",
    "x_dynamic": "X_flat",
    "trace": "traces",
    "ea": "y_ea",
}


def _corrupt(dataset, row_field, value, row=0):
    """A copy of ``dataset`` (layout included) with one entry of one row
    set to ``value``."""
    rows = list(dataset.rows)
    r = rows[row]
    if row_field == "ea":
        rows[row] = replace(r, ea=value)
    else:
        arr = np.array(getattr(r, row_field), dtype=float)
        arr.flat[arr.size // 2] = value
        rows[row] = replace(r, **{row_field: arr})
    return replace(dataset, rows=rows)


class TestOverrideKeys:
    @pytest.mark.parametrize("learner", LEARNERS)
    def test_misspelt_key_raises(self, learner):
        with pytest.raises(TypeError, match="n_estimator'"):
            EAModel(learner, n_estimator=5)

    def test_every_deep_forest_field_accepted(self):
        defaults = DeepForestRegressor()
        overrides = {
            f.name: getattr(defaults, f.name)
            for f in fields(DeepForestRegressor)
            if f.init and f.name != "rng"
        }
        assert EAModel("tree", **overrides).learner == "tree"

    @pytest.mark.parametrize("learner", ["deep_forest", "cascade", "random_forest"])
    def test_split_strategy_key_raises_through_stac_model(self, learner):
        with pytest.raises(TypeError, match="strategy"):
            StacModel(learner=learner, strategy="hist")

    def test_error_names_every_unknown_key(self):
        with pytest.raises(TypeError, match=r"\['early_stop', 'patience'\]"):
            EAModel("cascade", patience=2, early_stop=True)


class TestNonFiniteTrainingData:
    @pytest.fixture(scope="class")
    def rows(self, small_dataset):
        return small_dataset.subset(range(12))

    @pytest.mark.parametrize("learner", LEARNERS)
    @pytest.mark.parametrize("row_field", sorted(ROW_FIELD_TO_INPUT))
    def test_nan_rejected_naming_the_field(self, rows, learner, row_field):
        bad = _corrupt(rows, row_field, np.nan)
        name = ROW_FIELD_TO_INPUT[row_field]
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            EAModel(learner, rng=0).fit(bad)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    @pytest.mark.parametrize("row_field", sorted(ROW_FIELD_TO_INPUT))
    def test_infinity_rejected(self, rows, row_field, value):
        bad = _corrupt(rows, row_field, value, row=len(rows) - 1)
        name = ROW_FIELD_TO_INPUT[row_field]
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            EAModel("random_forest", rng=0).fit(bad)

    def test_rejected_fit_leaves_model_unfitted(self, rows):
        m = EAModel("linear", rng=0)
        with pytest.raises(ValueError):
            m.fit(_corrupt(rows, "ea", np.nan))
        with pytest.raises(RuntimeError, match="not fitted"):
            m.predict_dataset(rows)

    @pytest.mark.parametrize("learner", ["random_forest", "deep_forest"])
    def test_stac_model_fit_rejects_before_training(self, rows, learner):
        """A NaN target and a NaN condition feature in one dataset: the
        condition features are checked first."""
        bad = _corrupt(_corrupt(rows, "ea", np.nan), "x_static", np.nan, row=1)
        with pytest.raises(ValueError, match="X_flat must be finite"):
            StacModel(learner=learner, rng=0).fit(bad)


class TestPredictWithoutTraces:
    """Every learner but ``cascade`` is fitted on the traces, so
    predicting without them fails at the boundary, naming the learner."""

    FAST = dict(
        windows=[(5, 5)],
        mgs_estimators=5,
        n_levels=1,
        forests_per_level=2,
        n_estimators=10,
    )

    @pytest.mark.parametrize("learner", LEARNERS)
    def test_traces_none(self, small_dataset, learner):
        rows = small_dataset.subset(range(12))
        model = EAModel(learner, rng=0, **self.FAST).fit(rows)
        if learner == "cascade":
            assert np.array_equal(
                model.predict(rows.X_flat, None), model.predict_dataset(rows)
            )
        else:
            with pytest.raises(ValueError, match=f"'{learner}' learner.*traces"):
                model.predict(rows.X_flat, None)
            assert model.predict_dataset(rows).shape == (len(rows),)


class TestBatchIndependence:
    """A row predicted alone equals the same row inside a batch, for
    noisy profiled traces and for traces of equal columns, where the
    MGS predicts one window for many positions."""

    FOREST_LEARNERS = ("deep_forest", "cascade", "random_forest")

    @pytest.fixture(scope="class")
    def models(self, small_dataset):
        return {
            learner: EAModel(learner, rng=0, **TestPredictWithoutTraces.FAST).fit(
                small_dataset
            )
            for learner in self.FOREST_LEARNERS
        }

    @settings(max_examples=30, deadline=None)
    @given(
        learner=st.sampled_from(FOREST_LEARNERS),
        equal_columns=st.booleans(),
        data=st.data(),
    )
    def test_row_alone_equals_row_in_batch(
        self, models, small_dataset, learner, equal_columns, data
    ):
        row = st.integers(0, len(small_dataset) - 1)
        rows = data.draw(st.lists(row, min_size=1, max_size=6))
        X = small_dataset.X_flat[rows]
        traces = small_dataset.traces[rows]
        if equal_columns:
            traces = np.repeat(traces[:, :, :1], traces.shape[2], axis=2)
        i = data.draw(st.integers(0, len(rows) - 1))
        model = models[learner]
        alone = model.predict(X[i : i + 1], traces[i : i + 1])
        assert alone.tobytes() == model.predict(X, traces)[i : i + 1].tobytes()
