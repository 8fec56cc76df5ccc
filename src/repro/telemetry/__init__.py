"""Telemetry subsystem: metrics and spans.

Observability layer for the STA pipeline (profile -> deep forest ->
G/G/k STAP simulation -> timeout search).  Two primitives:

- a process-wide **metrics registry** (:mod:`repro.telemetry.registry`)
  of counters, gauges and fixed-bucket histograms;
- **span tracing** (:mod:`repro.telemetry.spans`): nested wall-time
  scopes over ``time.perf_counter`` with thread-safe aggregation.

Exporters (:mod:`repro.telemetry.exporters`) write a JSONL span log and
a JSON run-manifest, and render ASCII summaries through
:func:`repro.analysis.reporting.format_table`.

Design contract
---------------

Telemetry is **disabled by default** and a true no-op while disabled:

- no registry or span log exists (``get_registry()`` and
  ``get_span_log()`` return ``None``), so the disabled path allocates
  nothing;
- every instrumented site pays a single enabled-flag check
  (:func:`enabled` reads one attribute);
- telemetry never touches any RNG and never feeds back into any
  computation, so instrumented code paths produce **bit-identical**
  outputs whether telemetry is on or off.
"""

from __future__ import annotations

from repro.telemetry.registry import (
    DEFAULT_TIME_EDGES,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import NOOP_SPAN, SpanLog, SpanRecord

__all__ = [
    "DEFAULT_TIME_EDGES",
    "Histogram",
    "MetricsRegistry",
    "SpanLog",
    "SpanRecord",
    "configure",
    "counter_inc",
    "disable",
    "enabled",
    "gauge_set",
    "get_registry",
    "get_span_log",
    "histogram_observe",
    "span",
]


class _State:
    """The process-wide telemetry state.  Both slots are ``None`` while
    telemetry is disabled (the default)."""

    __slots__ = ("registry", "spans")

    def __init__(self):
        self.registry = None
        self.spans = None


_STATE = _State()


# -- lifecycle -----------------------------------------------------------------


def configure() -> MetricsRegistry:
    """Enable telemetry for this process.

    Creates a fresh registry and span log (discarding any previous
    state).  Returns the new registry.
    """
    _STATE.registry = MetricsRegistry()
    _STATE.spans = SpanLog()
    return _STATE.registry


def disable() -> None:
    """Disable telemetry and drop all collected state."""
    _STATE.registry = None
    _STATE.spans = None


def enabled() -> bool:
    """The single flag every instrumented site checks."""
    return _STATE.registry is not None


# -- accessors -----------------------------------------------------------------


def get_registry() -> MetricsRegistry | None:
    return _STATE.registry


def get_span_log() -> SpanLog | None:
    return _STATE.spans


# -- recording shims (each a no-op after one flag check when disabled) ---------


def counter_inc(name: str, value: float = 1.0) -> None:
    reg = _STATE.registry
    if reg is not None:
        reg.counter_inc(name, value)


def gauge_set(name: str, value: float) -> None:
    reg = _STATE.registry
    if reg is not None:
        reg.gauge_set(name, value)


def histogram_observe(name: str, value: float, edges=None) -> None:
    reg = _STATE.registry
    if reg is not None:
        reg.histogram_observe(name, value, edges=edges)


def span(name: str, **attrs):
    """Open a nested wall-time span (context manager).

    Returns a shared no-op handle while telemetry is disabled, so call
    sites need no guard of their own.
    """
    log = _STATE.spans
    if log is None:
        return NOOP_SPAN
    return log.start(name, attrs)
