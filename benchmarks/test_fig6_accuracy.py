"""Figure 6: response-time prediction accuracy across modeling approaches.

Paper's result (median / p95 absolute percentage error):
our approach 11%/12%; linear regression 50%/>300%; decision tree
20%/>100%; CNN 26%; queueing model alone 23%.

Protocol reproduced from Section 5.1:

- splits are at *condition* granularity, and predicting a test condition
  uses NO measurements from it — every model sees only the controllable
  settings plus simulator-derived (nominal) dynamic features and traces;
- our model trains on only 33% of the conditions while the competitors
  get 70%;
- predictions are compared against each condition's measured average
  response time on the testbed.
"""

import numpy as np

from benchmarks.conftest import print_block
from repro.analysis import ape_summary, format_table
from repro.baselines import DecisionTreeBaseline, RidgeRegression
from repro.baselines.cnn import CNNHyperParams, CNNRegressor
from repro.core import StacModel
from repro.core.rt_model import ResponseTimeModel
from repro.workloads import get_workload

DF_CONFIG = dict(
    windows=[(5, 5), (10, 10)],
    mgs_estimators=12,
    mgs_max_instances=6000,
    n_levels=2,
    forests_per_level=4,
    n_estimators=25,
)


def _flatten(X_flat, traces):
    return np.concatenate([X_flat, traces.reshape(traces.shape[0], -1)], axis=1)


def _ground_truth(test):
    """Per-(condition, service) measured mean RT + lookup keys."""
    groups = test.condition_groups()
    y = test.y_rt_mean
    keys, actual = [], []
    for (cid, sidx), idxs in groups.items():
        keys.append((test.rows[idxs[0]].condition, sidx))
        actual.append(float(np.mean(y[idxs])))
    return keys, np.asarray(actual)


def _queue_only_prediction(cond, sidx):
    """First-principles queueing with no cache knowledge at all.

    Without Stage 2 there is nothing to say how *effective* the extra
    ways are, so the natural assumption is EA = 1: the boosted rate
    scales with the gross allocation increase.  This overpredicts
    speedup whenever data reuse, footprint or contention make the extra
    ways less than fully effective.
    """
    rt_model = ResponseTimeModel(rng=0)
    spec = get_workload(cond.workloads[sidx])
    return rt_model.simulate(
        cond.utilizations[sidx], cond.timeouts[sidx], 2.0, 1.0, spec.service_cv
    ).summary.mean


def _run_all(dataset):
    comp_train, test = dataset.split_conditions(0.70, rng=0)
    ours_train, _ = comp_train.split_conditions(0.33 / 0.70, rng=1)

    keys, actual = _ground_truth(test)

    # Our approach + the cascade variant share the fixed-point machinery.
    ours = StacModel(rng=0, **DF_CONFIG).fit(ours_train)
    concepts = StacModel(
        rng=0, learner="cascade", n_levels=2, forests_per_level=4, n_estimators=25
    ).fit(ours_train)

    # Competing direct models train on measured profiles (70%).
    Xtr = _flatten(comp_train.X_flat, comp_train.traces)
    ytr = comp_train.y_rt_mean
    lin = RidgeRegression(alpha=1.0).fit(Xtr, ytr)
    tree = DecisionTreeBaseline(rng=0).fit(Xtr, ytr)
    cnn = CNNRegressor(
        CNNHyperParams(n_filters=8, kernel=(5, 5), hidden=32, epochs=40), rng=0
    ).fit(comp_train.X_flat, comp_train.traces, ytr)

    preds = {name: [] for name in (
        "our approach (DF + queue)", "queue + concepts", "queueing model only",
        "linear regression", "decision tree", "cnn (direct)",
    )}
    ea_pred, ea_true = [], []
    groups = test.condition_groups()
    y_ea = test.y_ea
    predicted_conditions = {}
    for (cond, sidx), idxs in zip(keys, groups.values()):
        if id(cond) not in predicted_conditions:
            predicted_conditions[id(cond)] = (
                ours.predict_condition(cond),
                concepts.predict_condition(cond),
            )
        ours_out, conc_out = predicted_conditions[id(cond)]
        preds["our approach (DF + queue)"].append(ours_out.summaries[sidx].mean)
        preds["queue + concepts"].append(conc_out.summaries[sidx].mean)
        preds["queueing model only"].append(_queue_only_prediction(cond, sidx))
        # Direct models score the same nominal (simulator-derived) inputs.
        xe = ours_out.X_flat[sidx : sidx + 1]
        te = ours_out.traces[sidx : sidx + 1]
        preds["linear regression"].append(float(lin.predict(_flatten(xe, te))[0]))
        preds["decision tree"].append(float(tree.predict(_flatten(xe, te))[0]))
        preds["cnn (direct)"].append(float(cnn.predict(xe, te)[0]))
        ea_pred.append(float(ours_out.effective_allocations[sidx]))
        ea_true.append(float(np.mean(y_ea[idxs])))

    results = {
        name: ape_summary(np.maximum(np.asarray(p), 1e-3), actual)
        for name, p in preds.items()
    }
    results["_ea_ours"] = ape_summary(np.asarray(ea_pred), np.asarray(ea_true))
    return results


def test_fig6_accuracy(benchmark, fig6_dataset):
    results = benchmark.pedantic(
        _run_all, args=(fig6_dataset,), rounds=1, iterations=1
    )
    ea_ours = results.pop("_ea_ours")

    order = [
        "linear regression",
        "decision tree",
        "cnn (direct)",
        "queueing model only",
        "queue + concepts",
        "our approach (DF + queue)",
    ]
    rows = [
        [name, results[name]["median"], results[name]["p95"], results[name]["n"]]
        for name in order
    ]
    print_block(
        format_table(
            ["approach", "median APE", "p95 APE", "n condition-services"],
            rows,
            title="Figure 6: response time prediction error (reproduced)",
        )
        + f"\n(our EA prediction error vs measured EA: median {ea_ours['median']:.3f})"
    )

    ours = results["our approach (DF + queue)"]["median"]
    # The headline orderings of Figure 6.
    assert ours < results["linear regression"]["median"]
    assert ours < results["decision tree"]["median"]
    assert ours < results["cnn (direct)"]["median"]
    assert ours <= results["queueing model only"]["median"]
    # The paper reports ~11% median error; hold a generous band.
    assert ours < 0.25
