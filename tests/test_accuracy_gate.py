"""Model-quality gate: one small fixed-seed run of the whole loop.

Profile redis/knn, fit the deep-forest ``StacModel``, score held-out
profiled rows with ``predict_rows`` and pick a timeout vector with
``model_driven_policy`` on a 3x3 grid.  The held-out median APEs of
``rt_mean`` and of the effective allocation must stay in bands around
their recorded values and the chosen vector must not move, so a
refactor that silently changes model quality fails here, not only in
the figure benchmarks.  A second, larger campaign scores the Stage 3
fixed point itself: ``predict_conditions`` on held-out conditions,
against each condition-service pair's measured means.

A change that is meant to move model output (a new split strategy, a
different cascade) re-records both values and says why.
"""

import numpy as np
import pytest

from repro.core import StacModel, model_driven_policy, uniform_conditions
from repro.core.profiler import Profiler, ProfilerSettings

PAIR = ("redis", "knn")
#: Recorded held-out median APEs; the gate allows +-0.02 around each.
RECORDED_RT_APE = 0.1091
RECORDED_EA_APE = 0.0390
CHOSEN_TIMEOUTS = (0.5, 0.5)
#: Recorded held-out median APEs of ``predict_conditions`` (32 profiled
#: conditions, 8 held out, 16 condition-service pairs); same +-0.02.
RECORDED_FIXED_POINT_RT_APE = 0.0900
RECORDED_FIXED_POINT_EA_APE = 0.0340


def _fit_campaign(n_conditions):
    profiler = Profiler(
        settings=ProfilerSettings(n_queries=300, n_windows=4, trace_ticks=16), rng=0
    )
    data = profiler.profile(uniform_conditions(PAIR, n=n_conditions, rng=0))
    train, test = data.split_conditions(0.75, rng=0)
    model = StacModel(
        rng=0, sim_queries=4000, mgs_estimators=4, mgs_max_instances=600, n_estimators=6
    )
    return model.fit(train), test


@pytest.fixture(scope="module")
def fitted():
    return _fit_campaign(10)


def median_ape(pred, actual) -> float:
    return float(np.median(np.abs(pred - actual) / actual))


def test_median_ape_in_band(fitted):
    model, test = fitted
    pred = model.predict_rows(test)
    assert median_ape(pred["rt_mean"], test.y_rt_mean) == pytest.approx(
        RECORDED_RT_APE, abs=0.02
    )
    assert median_ape(pred["ea"], test.y_ea) == pytest.approx(
        RECORDED_EA_APE, abs=0.02
    )


def test_chosen_timeout_vector(fitted):
    model, _ = fitted
    decision = model_driven_policy(
        model, PAIR, (0.7, 0.8), timeout_grid=(0.5, 1.0, 2.0)
    )
    assert decision.timeouts == CHOSEN_TIMEOUTS


def test_fixed_point_median_ape_in_band():
    model, test = _fit_campaign(32)
    conditions = test.conditions()
    by_id = {
        id(c): p for c, p in zip(conditions, model.predict_conditions(conditions))
    }
    rt_pred, rt_actual, ea_pred, ea_actual = [], [], [], []
    for (cid, s), idx in test.condition_groups().items():
        rt_pred.append(by_id[cid].summaries[s].mean)
        ea_pred.append(by_id[cid].effective_allocations[s])
        rt_actual.append(test.y_rt_mean[idx].mean())
        ea_actual.append(test.y_ea[idx].mean())
    assert len(conditions) == 8 and len(rt_pred) == 16
    assert median_ape(np.array(rt_pred), np.array(rt_actual)) == pytest.approx(
        RECORDED_FIXED_POINT_RT_APE, abs=0.02
    )
    assert median_ape(np.array(ea_pred), np.array(ea_actual)) == pytest.approx(
        RECORDED_FIXED_POINT_EA_APE, abs=0.02
    )
