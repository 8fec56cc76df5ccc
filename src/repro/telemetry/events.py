"""Simulator event traces: per-query queue timelines.

:class:`QueueEventSink` receives the outcome of a
:func:`~repro.queueing.ggk.simulate_stap_queue` /
:func:`~repro.queueing.ggk.simulate_stap_queue_batch` run and unrolls it
into discrete events — ``arrival``, ``service_start``,
``stap_boost_trigger`` (the warning instant at which the short-term
allocation engaged) and ``departure`` — so a per-query timeline can be
reconstructed after the fact.

The events are *derived from the finished result arrays*, not collected
inside the simulation loop: the kernel's closed-form per-query outcome
already determines every event time, so feeding a sink never touches
the hot loop, never perturbs any computation, and costs nothing when no
sink is attached.
"""

from __future__ import annotations

import json
import threading

import numpy as np

#: Event types, in within-query chronological order.
EVENT_TYPES: tuple[str, ...] = (
    "arrival",
    "service_start",
    "stap_boost_trigger",
    "departure",
)


class QueueEventSink:
    """Collects queue events across one or more simulated runs.

    Thread-safe: runs may be recorded from any thread.  Each recorded
    run gets a sequential ``run`` index (or a caller-supplied label) and
    contributes one event dict per (query, event) pair.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._events: list[dict] = []
        self._n_runs = 0

    # -- recording -------------------------------------------------------------

    def record_run(self, result, config, label: str | None = None) -> int:
        """Record one :class:`~repro.queueing.ggk.QueueResult`.

        ``config`` supplies the warning delay used to place the
        ``stap_boost_trigger`` event: a query that boosted switched rate
        at ``max(service_start, arrival + warning_delay)``.  Returns the
        run index assigned to this run.
        """
        arrivals = np.asarray(result.arrival_times, dtype=float)
        starts = np.asarray(result.start_times, dtype=float)
        completions = np.asarray(result.completion_times, dtype=float)
        boosted = np.asarray(result.boosted, dtype=bool)
        warn_delay = float(config.warning_delay)
        with self._lock:
            run = self._n_runs
            self._n_runs += 1
            events = self._events
            for q in range(arrivals.shape[0]):
                base = {"run": run, "query": q}
                if label is not None:
                    base["label"] = label
                events.append(
                    dict(base, type="arrival", t=float(arrivals[q]))
                )
                events.append(
                    dict(base, type="service_start", t=float(starts[q]))
                )
                if boosted[q]:
                    trigger = max(
                        float(starts[q]), float(arrivals[q]) + warn_delay
                    )
                    events.append(
                        dict(base, type="stap_boost_trigger", t=trigger)
                    )
                events.append(
                    dict(base, type="departure", t=float(completions[q]))
                )
        return run

    def record_batch(self, batch, configs, labels=None) -> list[int]:
        """Record every condition row of a
        :class:`~repro.queueing.ggk.BatchQueueResult` as its own run."""
        configs = list(configs)
        if labels is None:
            labels = [None] * len(configs)
        return [
            self.record_run(batch.condition(c), configs[c], label=labels[c])
            for c in range(batch.n_conditions)
        ]

    # -- inspection ------------------------------------------------------------

    @property
    def n_runs(self) -> int:
        with self._lock:
            return self._n_runs

    @property
    def n_events(self) -> int:
        with self._lock:
            return len(self._events)

    def events(self) -> list[dict]:
        """All recorded events (copies), in recording order."""
        with self._lock:
            return [dict(e) for e in self._events]

    def timeline(self, run: int, query: int) -> list[tuple[str, float]]:
        """Reconstruct one query's (event, time) timeline, time-ordered."""
        with self._lock:
            picked = [
                (e["type"], e["t"])
                for e in self._events
                if e["run"] == run and e["query"] == query
            ]
        return sorted(picked, key=lambda p: (p[1], EVENT_TYPES.index(p[0])))

    def run_summary(self) -> list[dict]:
        """Per-run event counts and boost-trigger fractions."""
        with self._lock:
            runs: dict[int, dict] = {}
            for e in self._events:
                r = runs.setdefault(
                    e["run"],
                    {"run": e["run"], "queries": 0, "boost_triggers": 0,
                     "label": e.get("label")},
                )
                if e["type"] == "arrival":
                    r["queries"] += 1
                elif e["type"] == "stap_boost_trigger":
                    r["boost_triggers"] += 1
        out = sorted(runs.values(), key=lambda r: r["run"])
        for r in out:
            r["boost_fraction"] = (
                r["boost_triggers"] / r["queries"] if r["queries"] else 0.0
            )
        return out

    # -- export ----------------------------------------------------------------

    def write_jsonl(self, path) -> int:
        """Write one JSON object per event; returns the event count."""
        events = self.events()
        with open(path, "w") as fh:
            for e in events:
                fh.write(json.dumps(e) + "\n")
        return len(events)


def read_events_jsonl(path) -> list[dict]:
    """Load an event log written by :meth:`QueueEventSink.write_jsonl`."""
    events = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
