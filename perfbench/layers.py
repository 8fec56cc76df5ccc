"""Declared layer registry and the span tracer that measures it.

Every layer of the pipeline is declared once in :data:`LAYERS`: the
library entry points its spans wrap, the per-layer metrics computed
from those spans (name and unit), the end-to-end metric a change to the
layer should move and the workloads it is heavy or light on.  The
runner emits exactly the metrics declared here and the self-test checks
that ``BENCHMARK.json`` lists the same names and units, so a layer can
neither be measured without being declared nor declared without being
measured.

Spans are recorded from the benchmark's own code: :class:`Tracer`
swaps each entry point for a wrapper that opens a span on a
:class:`repro.telemetry.SpanLog`, and restores the originals when it
leaves.  The library's own telemetry stays disabled, so the only spans
are the declared ones plus the benchmark's per-operation root span.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from repro.telemetry import SpanLog

#: Name of the root span the runner opens around each traced operation.
OP_SPAN = "bench.op"


@dataclass(frozen=True)
class Probe:
    """One span name and the entry points that record it.

    ``targets`` are ``"module:qualname"`` paths, patched where callers
    look them up (a function imported by name into another module is
    patched in that module).  ``count`` maps ``(args, result)`` of one
    call to numeric span attributes.
    """

    span: str
    targets: tuple[str, ...]
    count: Callable | None = None


@dataclass(frozen=True)
class Metric:
    """One per-layer metric: name, unit, how to read it off spans, and
    which direction is better."""

    name: str
    unit: str
    value: Callable[["SpanTotals"], float]
    better: str = "lower"


@dataclass(frozen=True)
class Layer:
    """One row of the layer table (see README.md)."""

    module: str
    probes: tuple[Probe, ...]
    metrics: tuple[Metric, ...]
    moves: tuple[str, ...]
    heavy_on: tuple[str, ...]
    light_on: tuple[str, ...]


class SpanTotals:
    """Per-operation totals over the spans of ``n_ops`` traced operations."""

    def __init__(self, records, n_ops: int):
        if n_ops < 1:
            raise ValueError("need at least one traced operation")
        self.n_ops = n_ops
        by_id = {r.id: r for r in records}
        covered = defaultdict(float)
        for r in records:
            if r.parent_id is not None:
                covered[r.parent_id] += r.duration
        self._self = defaultdict(float)
        self._wall = defaultdict(float)
        self._calls = defaultdict(int)
        self._attrs = defaultdict(float)
        for r in records:
            parent = by_id.get(r.parent_id)
            self._self[r.name] += r.duration - covered[r.id]
            self._wall[r.name] += r.duration
            self._calls[r.name] += 1
            for key, value in r.attrs.items():
                if isinstance(value, (int, float)):
                    self._attrs[(r.name, key)] += value
            # Keyed by the caller's span, for counts that depend on it.
            if parent is not None:
                self._calls[(parent.name, parent.attrs.get("entry"), r.name)] += 1

    def self_s(self, span: str) -> float:
        """Seconds per operation inside ``span`` but outside its children."""
        return self._self[span] / self.n_ops

    def total_self_s(self, span: str) -> float:
        return self._self[span]

    def total_wall_s(self, span: str) -> float:
        return self._wall[span]

    def calls(self, span: str) -> float:
        return self._calls[span] / self.n_ops

    def total_calls(self, span: str) -> int:
        return self._calls[span]

    def attr(self, span: str, key: str) -> float:
        """Sum of a numeric span attribute, per operation."""
        return self._attrs[(span, key)] / self.n_ops

    def total_attr(self, span: str, key: str) -> float:
        return self._attrs[(span, key)]

    def calls_under(self, parent: str, entry: str, span: str) -> float:
        """Calls of ``span`` made directly by ``parent`` spans opened at
        entry point ``entry``, per operation."""
        return self._calls[(parent, entry, span)] / self.n_ops


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _kernel_conditions(t: SpanTotals) -> float:
    return t.total_attr("queueing.batch", "conditions") + t.total_attr(
        "queueing.serial", "conditions"
    )


def _kernel_calls(t: SpanTotals) -> int:
    return t.total_calls("queueing.batch") + t.total_calls("queueing.serial")


def _ns_per_query(t: SpanTotals) -> float:
    seconds = t.total_self_s("queueing.batch") + t.total_self_s("queueing.serial")
    queries = t.total_attr("queueing.batch", "condition_queries") + t.total_attr(
        "queueing.serial", "condition_queries"
    )
    return _ratio(seconds * 1e9, queries)


def _unattributed(t: SpanTotals) -> float:
    return _ratio(t.total_self_s(OP_SPAN), t.total_wall_s(OP_SPAN))


def _kernel_counts(args, result) -> dict:
    arrivals = args[0]
    shape = getattr(arrivals, "shape", (len(arrivals),))
    conditions = shape[0] if len(shape) == 2 else 1
    return {"conditions": conditions, "condition_queries": conditions * shape[-1]}


def _n_rows(args, result) -> dict:
    return {"rows": len(args[0])}


LAYERS: tuple[Layer, ...] = (
    Layer(
        module="repro.testbed.runtime",
        probes=(
            Probe(
                "testbed.run",
                ("repro.testbed.runtime:CollocationRuntime.run",),
                lambda args, res: {
                    "queries": sum(s.n_queries for s in res.services)
                },
            ),
        ),
        metrics=(
            Metric("testbed.run_s", "s", lambda t: t.self_s("testbed.run")),
            Metric("testbed.runs", "count", lambda t: t.calls("testbed.run")),
            Metric(
                "testbed.queries", "count", lambda t: t.attr("testbed.run", "queries")
            ),
        ),
        moves=("profile_s", "setup_s"),
        heavy_on=("build",),
        light_on=("plan", "whatif"),
    ),
    Layer(
        module="repro.counters.sampler",
        probes=(
            Probe(
                "counters.sample",
                ("repro.counters.sampler:CounterSampler.sample",),
                lambda args, res: {"ticks": res.shape[0]},
            ),
        ),
        metrics=(
            Metric("counters.sample_s", "s", lambda t: t.self_s("counters.sample")),
            Metric("counters.samples", "count", lambda t: t.calls("counters.sample")),
            Metric(
                "counters.ticks", "count", lambda t: t.attr("counters.sample", "ticks")
            ),
        ),
        moves=("profile_s", "setup_s"),
        heavy_on=("build",),
        light_on=("plan", "whatif"),
    ),
    Layer(
        module="repro.core.profiler",
        probes=(
            Probe(
                "profiler",
                ("repro.core.profiler:Profiler.profile",),
                lambda args, res: {"rows": len(res)},
            ),
            Probe("profiler.window_means", ("repro.core.profiler:_segment_means",)),
            Probe("profiler.boost_overlap", ("repro.core.profiler:_boost_overlap",)),
            Probe(
                "profiler.trace",
                ("repro.counters.trace:CacheUsageTrace.from_counters",),
            ),
        ),
        metrics=(
            Metric(
                "profiler.window_means_s",
                "s",
                lambda t: t.self_s("profiler.window_means"),
            ),
            Metric(
                "profiler.boost_overlap_s",
                "s",
                lambda t: t.self_s("profiler.boost_overlap"),
            ),
            Metric("profiler.trace_s", "s", lambda t: t.self_s("profiler.trace")),
            Metric("profiler.rows", "count", lambda t: t.attr("profiler", "rows")),
            Metric("profiler.self_s", "s", lambda t: t.self_s("profiler")),
        ),
        moves=("profile_s", "setup_s"),
        heavy_on=("build",),
        light_on=("plan", "whatif"),
    ),
    Layer(
        module="repro.forest",
        probes=(
            Probe("forest.mgs_fit", ("repro.forest.mgs:MultiGrainScanner.fit",)),
            Probe("forest.cascade_fit", ("repro.forest.cascade:CascadeForest.fit",)),
            Probe("ea_model.fit", ("repro.core.ea_model:EAModel.fit",)),
        ),
        metrics=(
            Metric("forest.mgs_fit_s", "s", lambda t: t.self_s("forest.mgs_fit")),
            Metric(
                "forest.cascade_fit_s", "s", lambda t: t.self_s("forest.cascade_fit")
            ),
            Metric("ea_model.fit_s", "s", lambda t: t.self_s("ea_model.fit")),
        ),
        moves=("fit_s", "setup_s"),
        heavy_on=("build",),
        light_on=("plan", "whatif"),
    ),
    Layer(
        module="repro.core.ea_model",
        probes=(
            Probe(
                "ea_model.predict",
                ("repro.core.ea_model:EAModel.predict",),
                _n_rows,
            ),
        ),
        metrics=(
            Metric("ea_model.predict_s", "s", lambda t: t.self_s("ea_model.predict")),
            Metric(
                "ea_model.predict_calls", "count", lambda t: t.calls("ea_model.predict")
            ),
            Metric(
                "ea_model.rows_per_call",
                "count",
                lambda t: _ratio(
                    t.total_attr("ea_model.predict", "rows"),
                    t.total_calls("ea_model.predict"),
                ),
                better="higher",
            ),
        ),
        moves=("plan_p50_s", "chain_plan_p50_s", "op_p50_s"),
        heavy_on=("plan",),
        light_on=("build",),
    ),
    Layer(
        module="repro.core.pipeline",
        probes=(
            Probe(
                "pipeline",
                (
                    "repro.core.pipeline:StacModel.fit",
                    "repro.core.pipeline:StacModel.predict_rows",
                    "repro.core.pipeline:StacModel.predict_conditions",
                ),
            ),
            Probe(
                "pipeline.nominal_trace",
                ("repro.core.pipeline:StacModel._nominal_trace",),
            ),
        ),
        metrics=(
            Metric(
                "pipeline.nominal_trace_s",
                "s",
                lambda t: t.self_s("pipeline.nominal_trace"),
            ),
            # One batched simulation per fixed-point round.
            Metric(
                "pipeline.fixed_point_rounds",
                "count",
                lambda t: t.calls_under(
                    "pipeline", "StacModel.predict_conditions", "rt_model"
                ),
            ),
            Metric("pipeline.self_s", "s", lambda t: t.self_s("pipeline")),
        ),
        moves=("plan_p50_s", "chain_plan_p50_s", "op_p50_s"),
        heavy_on=("plan",),
        light_on=("build",),
    ),
    Layer(
        module="repro.queueing.ggk",
        probes=(
            Probe(
                "queueing.batch",
                ("repro.core.rt_model:simulate_stap_queue_batch",),
                _kernel_counts,
            ),
            Probe(
                "queueing.serial",
                ("repro.core.rt_model:simulate_stap_queue",),
                _kernel_counts,
            ),
        ),
        metrics=(
            Metric("queueing.batch_s", "s", lambda t: t.self_s("queueing.batch")),
            Metric(
                "queueing.conditions_per_call",
                "count",
                lambda t: _ratio(_kernel_conditions(t), _kernel_calls(t)),
                better="higher",
            ),
            Metric("queueing.ns_per_query", "ns", _ns_per_query),
            Metric("queueing.serial_s", "s", lambda t: t.self_s("queueing.serial")),
            Metric(
                "queueing.kernel_calls",
                "count",
                lambda t: _kernel_calls(t) / t.n_ops,
            ),
        ),
        moves=("plan_p50_s", "chain_plan_p50_s", "predict_p50_s", "predict_tail_s", "op_p50_s"),
        heavy_on=("plan", "whatif"),
        light_on=("build",),
    ),
    Layer(
        module="repro.core.rt_model",
        probes=(
            Probe(
                "rt_model",
                (
                    "repro.core.rt_model:ResponseTimeModel.simulate",
                    "repro.core.rt_model:ResponseTimeModel.simulate_many",
                ),
                lambda args, res: {
                    "conditions": len(res) if isinstance(res, list) else 1
                },
            ),
        ),
        metrics=(
            Metric("rt_model.self_s", "s", lambda t: t.self_s("rt_model")),
            # A serial simulate_many re-enters simulate once per condition;
            # count each condition where it enters the layer.
            Metric(
                "rt_model.conditions",
                "count",
                lambda t: t.attr("rt_model", "conditions")
                - t.calls_under(
                    "rt_model", "ResponseTimeModel.simulate_many", "rt_model"
                ),
            ),
        ),
        moves=("plan_p50_s", "predict_p50_s", "op_p50_s"),
        heavy_on=("plan", "whatif"),
        light_on=("build",),
    ),
    Layer(
        module="repro.queueing.metrics",
        probes=(
            Probe(
                "metrics.summarize",
                ("repro.core.rt_model:summarize_response_times",),
            ),
        ),
        metrics=(
            Metric(
                "metrics.summarize_s", "s", lambda t: t.self_s("metrics.summarize")
            ),
            Metric(
                "metrics.summaries", "count", lambda t: t.calls("metrics.summarize")
            ),
        ),
        moves=("plan_p50_s", "op_p50_s"),
        heavy_on=("plan",),
        light_on=("build",),
    ),
    Layer(
        module="repro.core.policy_search",
        probes=(
            Probe(
                "policy",
                ("repro.core.policy_search:explore_timeouts",),
                lambda args, res: {"combos": len(res[0])},
            ),
            Probe(
                "policy.slo_matching",
                ("repro.core.policy_search:slo_matching",),
            ),
        ),
        metrics=(
            Metric(
                "policy.slo_matching_s",
                "s",
                lambda t: t.self_s("policy.slo_matching"),
            ),
            Metric("policy.combos", "count", lambda t: t.attr("policy", "combos")),
            Metric("policy.self_s", "s", lambda t: t.self_s("policy")),
        ),
        moves=("plan_p50_s", "op_p50_s"),
        heavy_on=("plan",),
        light_on=("build", "whatif"),
    ),
)

#: Trace-quality metrics, computed by the runner itself.
TRACE_METRICS: tuple[tuple[str, str], ...] = (
    ("trace.unattributed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
)


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {m.name: m.unit for layer in LAYERS for m in layer.metrics}
    units.update(TRACE_METRICS)
    return units


def per_layer_declaration() -> list[dict]:
    """The ``per_layer`` list of BENCHMARK.json, derived from the registry."""
    better = {m.name: m.better for layer in LAYERS for m in layer.metrics}
    return [
        {"name": name, "unit": unit, "better": better.get(name, "lower")}
        for name, unit in per_layer_metric_units().items()
    ]


def layer_metrics(records, n_ops: int, overhead_frac: float) -> dict[str, float]:
    """Per-operation layer metrics from the spans of ``n_ops`` operations."""
    totals = SpanTotals(records, n_ops)
    values = {
        m.name: float(m.value(totals)) for layer in LAYERS for m in layer.metrics
    }
    values["trace.unattributed_frac"] = _unattributed(totals)
    values["trace.overhead_frac"] = overhead_frac
    return values


def _resolve(target: str):
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name), or
    ``None`` when the owner no longer defines the attribute."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Wraps every declared entry point in a span while active.

    An entry point the library no longer defines is skipped and listed
    in ``missing``, so a refactor shows in the report (its time moves
    to the calling layer's self time) instead of breaking the run.
    """

    def __init__(self):
        self.log = SpanLog()
        self.missing: list[str] = []

    def _wrap(self, fn, probe: Probe, entry: str):
        log = self.log

        def traced(*args, **kwargs):
            with log.start(probe.span, {"entry": entry}) as span:
                result = fn(*args, **kwargs)
                if probe.count is not None:
                    # ``Class.attr`` entries receive self/cls first.
                    call_args = args[1:] if "." in entry else args
                    for key, value in probe.count(call_args, result).items():
                        span.set_attr(key, value)
            return result

        return traced

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        self.missing = []
        try:
            for layer in LAYERS:
                for probe in layer.probes:
                    for target in probe.targets:
                        resolved = _resolve(target)
                        if resolved is None:
                            self.missing.append(target)
                            continue
                        owner, attr = resolved
                        original = vars(owner)[attr]
                        entry = target.split(":")[1]
                        if isinstance(original, classmethod):
                            wrapped = classmethod(
                                self._wrap(original.__func__, probe, entry)
                            )
                        else:
                            wrapped = self._wrap(original, probe, entry)
                        saved.append((owner, attr, original))
                        setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def operation(self):
        """Root span around one traced operation."""
        with self.log.start(OP_SPAN, {}):
            yield
