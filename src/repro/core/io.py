"""Persistence for profile datasets.

Profiling campaigns are the expensive stage (Section 5.1 budgets 30
minutes), so datasets must outlive a process.  Everything serializes to
a single ``.npz`` (plus a JSON header embedded in it) with no pickling,
so files are portable and safe to load.  The header (version 3) records
the testbed layout — machine and profiler settings, the counter
sampling rate among them — the rows were profiled on.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from repro.core.profile_vec import (
    ProfileDataset,
    ProfileRow,
    ProfilerSettings,
    RuntimeCondition,
)
from repro.testbed.machine import XeonSpec


def save_dataset(path, dataset: ProfileDataset) -> None:
    """Write a profile dataset to ``path`` (.npz)."""
    if len(dataset) == 0:
        raise ValueError("refusing to save an empty dataset")
    conditions = dataset.conditions()
    cond_index = {id(c): i for i, c in enumerate(conditions)}
    header = {
        "version": 3,
        "machine": asdict(dataset.machine),
        "settings": asdict(dataset.settings),
        "conditions": [
            {
                "workloads": list(c.workloads),
                "utilizations": list(c.utilizations),
                "timeouts": [
                    "inf" if np.isinf(t) else float(t) for t in c.timeouts
                ],
            }
            for c in conditions
        ],
    }
    np.savez_compressed(
        path,
        # NumPy scalars and arrays in the layout serialize as plain values.
        header=np.frombuffer(
            json.dumps(header, default=lambda o: o.tolist()).encode(), dtype=np.uint8
        ),
        x_static=np.stack([r.x_static for r in dataset.rows]),
        x_dynamic=np.stack([r.x_dynamic for r in dataset.rows]),
        traces=dataset.traces,
        y_ea=dataset.y_ea,
        y_rt_mean=dataset.y_rt_mean,
        y_rt_p95=dataset.y_rt_p95,
        service_idx=np.array([r.service_idx for r in dataset.rows]),
        window_idx=np.array([r.window_idx for r in dataset.rows]),
        cond_idx=np.array([cond_index[id(r.condition)] for r in dataset.rows]),
    )


def load_dataset(path) -> ProfileDataset:
    """Read a profile dataset written by :func:`save_dataset`.

    Rows of the same original condition share one
    :class:`RuntimeCondition` instance, preserving
    ``split_conditions``/``condition_groups`` semantics.  A version-1
    or version-2 file, which does not record its whole layout in the
    profiler settings, raises ``ValueError``.
    """
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(bytes(data["header"].tobytes()).decode())
        version = header.get("version")
        if version in (1, 2):
            raise ValueError(
                f"{path}: a version-{version} dataset does not record its "
                "layout in its profiler settings; profile it again"
            )
        if version != 3:
            raise ValueError(f"unsupported dataset version {version}")
        conditions = [
            RuntimeCondition(
                workloads=tuple(c["workloads"]),
                utilizations=tuple(c["utilizations"]),
                timeouts=tuple(
                    np.inf if t == "inf" else float(t) for t in c["timeouts"]
                ),
            )
            for c in header["conditions"]
        ]
        rows = []
        for i in range(data["y_ea"].shape[0]):
            rows.append(
                ProfileRow(
                    condition=conditions[int(data["cond_idx"][i])],
                    service_idx=int(data["service_idx"][i]),
                    window_idx=int(data["window_idx"][i]),
                    x_static=data["x_static"][i].copy(),
                    x_dynamic=data["x_dynamic"][i].copy(),
                    trace=data["traces"][i].copy(),
                    ea=float(data["y_ea"][i]),
                    rt_mean=float(data["y_rt_mean"][i]),
                    rt_p95=float(data["y_rt_p95"][i]),
                )
            )
    return ProfileDataset(
        rows=rows,
        machine=XeonSpec(**header["machine"]),
        settings=ProfilerSettings(**header["settings"]),
    )
