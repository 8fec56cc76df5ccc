"""Reference Stage 3 code for equivalence tests.

``nominal_trace_oracle`` is the body :meth:`StacModel._nominal_trace`
had before it became one batch over every (condition, service) pair of
a fixed-point round: for one target service, compute each block's
boosted capacity (with its own shared-way split), spread the boosted
ticks through the window and synthesize the (own, chain-neighbour)
counter blocks one ``synthesize_ticks`` call each.  The batched path
must reproduce it bit for bit.

``predict_conditions_oracle`` is the fixed-point loop
:meth:`StacModel.predict_conditions` ran before it ended on a simulate:
every round simulates, builds the nominal inputs and predicts EAs, so
the last round's EA predict feeds no simulate.  Its summaries and
nominal inputs must equal the shipped loop's bit for bit.
"""

import numpy as np

from repro.core.pipeline import ConditionPrediction
from repro.counters.events import synthesize_ticks


def boosted_capacity_oracle(model, specs, j, boost_fractions) -> float:
    """Expected LLC bytes for service ``j`` while it holds its boost."""
    mb = 1024 * 1024
    private = model.settings.private_mb * mb
    shared = model.settings.shared_mb * mb
    n = len(specs)
    adjacent = [k for k in (j - 1, j + 1) if 0 <= k < n]
    cap = private
    w_own = specs[j].fill_intensity(specs[j].baseline_capacity)
    for k in adjacent:
        pb = float(boost_fractions[k])
        w_k = specs[k].fill_intensity(specs[k].baseline_capacity)
        both = model._contention.effective_shared_ways(
            shared, np.array([w_own, w_k])
        )
        cap += (1 - pb) * shared + pb * both[0]
    return cap


def nominal_trace_oracle(model, specs, target, utils, boost_fractions) -> np.ndarray:
    """(n_blocks * N_COUNTERS, trace_ticks) nominal trace of one service."""
    mb = 1024 * 1024
    private = model.settings.private_mb * mb
    dt = 1.0 / model.settings.sampling_hz
    n_ticks = model.settings.trace_ticks
    n = len(specs)
    if n == 1:
        order = [target]
    else:
        order = [target, target + 1 if target < n - 1 else target - 1]
    blocks = []
    for j in order:
        spec = specs[j]
        cap_boost = boosted_capacity_oracle(model, specs, j, boost_fractions)
        bf = float(boost_fractions[j])
        boosted_ticks = {
            int(round(k * n_ticks / max(1, round(bf * n_ticks))))
            for k in range(int(round(bf * n_ticks)))
        }
        boosted = np.zeros(n_ticks, dtype=bool)
        boosted[[t for t in boosted_ticks if t < n_ticks]] = True
        cap = np.where(boosted, cap_boost, private)
        ticks = synthesize_ticks(
            spec,
            capacity_bytes=cap,
            busy_fraction=float(utils[j]),
            boost_fraction=boosted.astype(float),
            dt=dt,
            ways_allocated=cap / model.machine.way_bytes,
            noise=0.0,
        )
        blocks.append(ticks.T)
    return np.vstack(blocks)


def predict_conditions_oracle(model, conditions) -> list[ConditionPrediction]:
    """``model.predict_conditions`` with an EA predict closing every round.

    Returns the last round's predicted EAs, which no summary was
    simulated with.
    """
    conditions = list(conditions)
    layouts = [model._layout(cond) for cond in conditions]
    specs_per = [[svc.workload for svc in cfg.services] for cfg in layouts]
    grosses_per = [
        [cfg.gross_increase(i) for i in range(cfg.n_services)] for cfg in layouts
    ]
    eas_per = [
        model._init_eas(cfg, grosses) for cfg, grosses in zip(layouts, grosses_per)
    ]
    sim_base = [
        dict(
            utilization=cond.utilizations[i],
            timeout=cond.timeouts[i],
            gross_increase=grosses[i],
            service_cv=spec.service_cv,
            mean_service_time=model._default_service_time(cfg, i),
        )
        for cond, cfg, specs, grosses in zip(
            conditions, layouts, specs_per, grosses_per
        )
        for i, spec in enumerate(specs)
    ]
    offsets = np.cumsum([0] + [len(specs) for specs in specs_per])
    for _ in range(model.n_iterations):
        eas = [float(ea) for group in eas_per for ea in group]
        all_feedback = model.rt_model.simulate_many(
            [dict(base, effective_allocation=ea) for base, ea in zip(sim_base, eas)]
        )
        feedback_per = [all_feedback[a:b] for a, b in zip(offsets, offsets[1:])]
        boost_per = [
            np.array([f.boost_fraction for f in feedback]) for feedback in feedback_per
        ]
        traces_per = model._nominal_trace(layouts, boost_per)
        X_per = [
            model._feature_rows(*args)
            for args in zip(conditions, specs_per, grosses_per, feedback_per, boost_per)
        ]
        eas_per = [
            model.ea_model.predict(X, traces) for X, traces in zip(X_per, traces_per)
        ]
    return [
        ConditionPrediction(
            summaries=[f.summary for f in feedback_per[ci]],
            effective_allocations=eas_per[ci],
            X_flat=X_per[ci],
            traces=traces_per[ci],
        )
        for ci in range(len(conditions))
    ]
