"""Tests for span tracing: nesting, ordering, merging, the no-op path."""

import threading

from repro import telemetry
from repro.telemetry.spans import NOOP_SPAN, SpanLog


class TestSpanLog:
    def test_nesting_sets_parent(self):
        log = SpanLog()
        with log.start("outer", {}) as outer:
            with log.start("inner", {}) as inner:
                assert inner.parent_id == outer.id
        records = {r.name: r for r in log.records}
        assert records["outer"].parent_id is None
        assert records["inner"].parent_id == records["outer"].id

    def test_ids_are_monotonic_in_start_order(self):
        log = SpanLog()
        with log.start("a", {}):
            pass
        with log.start("b", {}):
            pass
        a, b = log.by_name("a")[0], log.by_name("b")[0]
        assert a.id < b.id

    def test_completion_order_vs_start_order(self):
        # Inner spans complete first but keep their later start ids.
        log = SpanLog()
        with log.start("outer", {}):
            with log.start("inner", {}):
                pass
        assert [r.name for r in log.records] == ["inner", "outer"]
        assert log.records[0].id > log.records[1].id

    def test_attrs_settable_during_span(self):
        log = SpanLog()
        with log.start("s", {"fixed": 1}) as s:
            s.set_attr("late", "value")
        (rec,) = log.records
        assert rec.attrs == {"fixed": 1, "late": "value"}

    def test_durations_non_negative_and_start_offsets_relative(self):
        log = SpanLog()
        with log.start("s", {}):
            pass
        (rec,) = log.records
        assert rec.duration >= 0.0
        assert rec.start >= 0.0

    def test_closed_span_is_no_longer_a_parent(self):
        """A span opened after a sibling closes nests under their common
        parent, and one opened after every span closed is a root."""
        log = SpanLog()
        with log.start("outer", {}):
            with log.start("first", {}):
                pass
            with log.start("second", {}):
                pass
        with log.start("after", {}):
            pass
        records = {r.name: r for r in log.records}
        outer = records["outer"].id
        assert records["first"].parent_id == records["second"].parent_id == outer
        assert records["outer"].parent_id is records["after"].parent_id is None

    def test_roots_in_start_order(self):
        log = SpanLog()
        with log.start("first", {}):
            with log.start("child", {}):
                pass
        with log.start("second", {}):
            pass
        assert [r.name for r in log.roots()] == ["first", "second"]

    def test_threads_nest_independently(self):
        log = SpanLog()
        seen = {}

        def work(tag):
            with log.start(f"root-{tag}", {}) as root:
                with log.start(f"leaf-{tag}", {}) as leaf:
                    seen[tag] = (root.id, leaf.parent_id)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for root_id, leaf_parent in seen.values():
            assert leaf_parent == root_id
        assert len(log.records) == 8

    def test_record_dict_keys(self):
        log = SpanLog()
        with log.start("outer", {"n": 2}):
            with log.start("inner", {}):
                pass
        for d in log.snapshot():
            assert set(d) == {
                "id", "parent_id", "name", "start", "duration", "attrs",
            }


class TestNoopPath:
    def test_disabled_span_is_the_shared_noop(self):
        assert telemetry.span("anything", k=1) is NOOP_SPAN

    def test_noop_span_supports_full_protocol(self):
        with telemetry.span("x") as s:
            s.set_attr("ignored", 1)

    def test_enabled_span_records(self):
        telemetry.configure()
        with telemetry.span("x", k=2) as s:
            s.set_attr("extra", 3)
        (rec,) = telemetry.get_span_log().records
        assert rec.name == "x"
        assert rec.attrs == {"k": 2, "extra": 3}

