"""Figure 7b: generalization across processor LLC sizes.

Reruns the profiling + modeling pipeline on every catalogued Xeon
(20-72 MB LLC), fully utilizing each machine's cores with collocated
workloads (secondary axis of the figure) and the paper's per-machine
reservation sizes.  The paper: median error stays below 15% everywhere.
"""

import itertools

import numpy as np

from benchmarks.conftest import print_block
from repro.analysis import format_table, median_ape
from repro.core import StacModel
from repro.core.profiler import Profiler, ProfilerSettings
from repro.core.sampling import uniform_conditions
from repro.testbed import MACHINES
from repro.workloads import WORKLOADS

#: Per-machine LLC reserved per workload (Section 5.1's Figure 7b text).
RESERVED_MB = {
    "platinum-8275-s0": 3.0,
    "platinum-8275-s1": 3.0,
    "e5-2683": 2.0,
    "e5-2650": 3.0,
    "e5-2620": 4.0,
}

DF_CONFIG = dict(
    windows=[(5, 5), (10, 10)],
    mgs_estimators=10,
    mgs_max_instances=5000,
    n_levels=1,
    forests_per_level=4,
    n_estimators=20,
)


def _collocation_for(machine, private_mb):
    """Fully utilize cores, bounded by the ways the chain layout needs."""
    private_ways = machine.mb_to_ways(private_mb)
    shared_ways = machine.mb_to_ways(private_mb)
    by_cores = machine.max_collocated
    # n*private + (n-1)*shared <= llc_ways
    by_ways = (machine.llc_ways + shared_ways) // (private_ways + shared_ways)
    n = max(2, min(by_cores, by_ways))
    names = list(itertools.islice(itertools.cycle(WORKLOADS), n))
    return names


def _run():
    rows = []
    for name, machine in MACHINES.items():
        private_mb = RESERVED_MB[name]
        workloads = _collocation_for(machine, private_mb)
        conditions = uniform_conditions(tuple(workloads), n=10, rng=7)
        profiler = Profiler(
            machine=machine,
            settings=ProfilerSettings(
                n_queries=450,
                n_windows=3,
                trace_ticks=16,
                private_mb=private_mb,
                shared_mb=private_mb,
            ),
            rng=7,
        )
        ds = profiler.profile(conditions)
        train, test = ds.split_conditions(0.6, rng=0)
        model = StacModel(rng=0, **DF_CONFIG).fit(train)
        pred = model.predict_rows(test)
        groups = test.condition_groups()
        p, a = [], []
        for idxs in groups.values():
            p.append(float(np.mean(pred["rt_mean"][idxs])))
            a.append(float(np.mean(test.y_rt_mean[idxs])))
        err = median_ape(np.asarray(p), np.asarray(a))
        rows.append([name, machine.llc_mb, len(workloads), err])
    return rows


def test_fig7b_processors(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = sorted(rows, key=lambda r: r[1])
    print_block(
        format_table(
            ["machine", "LLC MB", "collocated workloads", "median APE"],
            rows,
            title="Figure 7b: accuracy across processor cache sizes (reproduced)",
        )
    )
    # The paper's claim: median error below 15% on every processor.  We
    # hold a 30% band for the scaled-down campaign.
    for name, llc, n, err in rows:
        assert err < 0.30, f"{name}: {err:.3f}"
    # More cores -> more collocated workloads (the striped secondary axis).
    by_size = {r[0]: r[2] for r in rows}
    assert by_size["platinum-8275-s0"] > by_size["e5-2620"]
