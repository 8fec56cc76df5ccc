"""Span-based tracing: nested wall-time scopes over ``perf_counter``.

A span is a named scope (``stage2.cascade.level``,
``policy.explore_timeouts``, ...) with free-form JSON-safe attributes.
Spans nest per thread — the enclosing span on the same thread becomes
the parent — and completed spans land in a shared, lock-protected log
in completion order, each carrying a monotonically increasing ``id``
assigned at *start* so the original ordering is always recoverable.

Start offsets are relative to the log's creation instant (one
``perf_counter`` origin per log), which keeps records meaningful after
serialization.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


@dataclass
class SpanRecord:
    """One completed span."""

    id: int
    parent_id: int | None
    name: str
    start: float  # seconds since the log's origin
    duration: float
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": self.attrs,
        }


class Span:
    """Active span handle; use as a context manager."""

    __slots__ = ("_log", "id", "parent_id", "name", "attrs", "_t0")

    def __init__(self, log: "SpanLog", span_id: int, parent_id, name, attrs):
        self._log = log
        self.id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self._log._push(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        t1 = time.perf_counter()
        self._log._pop(self, self._t0, t1)
        return False


class NoopSpan:
    """Shared do-nothing span returned while telemetry is disabled."""

    __slots__ = ()

    def set_attr(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NOOP_SPAN = NoopSpan()


class SpanLog:
    """Thread-safe collection of spans with per-thread nesting stacks."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._origin = time.perf_counter()
        self.records: list[SpanRecord] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, attrs: dict) -> Span:
        stack = self._stack()
        parent_id = stack[-1].id if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return Span(self, span_id, parent_id, name, attrs)

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span, t0: float, t1: float) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        record = SpanRecord(
            id=span.id,
            parent_id=span.parent_id,
            name=span.name,
            start=t0 - self._origin,
            duration=t1 - t0,
            attrs=span.attrs,
        )
        with self._lock:
            self.records.append(record)

    def snapshot(self) -> list[dict]:
        with self._lock:
            return [r.to_dict() for r in self.records]

    def by_name(self, name: str) -> list[SpanRecord]:
        with self._lock:
            return [r for r in self.records if r.name == name]

    def roots(self) -> list[SpanRecord]:
        """Top-level spans (no parent), in start order."""
        with self._lock:
            return sorted(
                (r for r in self.records if r.parent_id is None),
                key=lambda r: r.id,
            )
