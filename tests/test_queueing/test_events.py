"""Tests for the discrete-event kernel."""

import math

import pytest

from repro.queueing import EventLoop


class TestEventLoop:
    def test_runs_in_time_order(self):
        loop = EventLoop()
        seen = []
        loop.schedule(3.0, lambda: seen.append("c"))
        loop.schedule(1.0, lambda: seen.append("a"))
        loop.schedule(2.0, lambda: seen.append("b"))
        loop.run()
        assert seen == ["a", "b", "c"]

    def test_fifo_among_simultaneous(self):
        loop = EventLoop()
        seen = []
        for i in range(5):
            loop.schedule(1.0, lambda i=i: seen.append(i))
        loop.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_clock_advances(self):
        loop = EventLoop()
        times = []
        loop.schedule(2.5, lambda: times.append(loop.now))
        loop.run()
        assert times == [2.5] and loop.now == 2.5

    def test_callbacks_can_schedule(self):
        loop = EventLoop()
        seen = []

        def first():
            seen.append("first")
            loop.schedule_in(1.0, lambda: seen.append("second"))

        loop.schedule(1.0, first)
        loop.run()
        assert seen == ["first", "second"] and loop.now == 2.0

    def test_run_until(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append(1))
        loop.schedule(5.0, lambda: seen.append(5))
        loop.run(until=3.0)
        assert seen == [1] and loop.now == 3.0 and loop.pending == 1

    def test_run_max_events(self):
        loop = EventLoop()
        seen = []
        for t in (1.0, 2.0, 3.0):
            loop.schedule(t, lambda t=t: seen.append(t))
        loop.run(max_events=2)
        assert seen == [1.0, 2.0]

    def test_cannot_schedule_in_past(self):
        loop = EventLoop()
        loop.schedule(5.0, lambda: loop.schedule(1.0, lambda: None))
        with pytest.raises(ValueError, match="past"):
            loop.run()

    def test_schedule_at_now_and_zero_delay_accepted(self):
        loop = EventLoop()
        seen = []
        loop.schedule(2.0, lambda: loop.schedule(2.0, lambda: seen.append("at")))
        loop.schedule(2.0, lambda: loop.schedule_in(0.0, lambda: seen.append("in")))
        loop.run()
        assert seen == ["at", "in"]
        assert loop.now == 2.0

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, time):
        """NaN compares False with everything, so it used to pass the
        in-the-past check and corrupt the heap order."""
        loop = EventLoop()
        with pytest.raises(ValueError, match="finite"):
            loop.schedule(time, lambda: None)
        assert loop.pending == 0

    @pytest.mark.parametrize("delay", [math.nan, math.inf])
    def test_non_finite_delay_rejected(self, delay):
        loop = EventLoop()
        loop.schedule(1.0, lambda: loop.schedule_in(delay, lambda: None))
        with pytest.raises(ValueError, match="finite"):
            loop.run()
        assert loop.pending == 0

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError, match="delay"):
            loop.schedule_in(-1.0, lambda: None)


def test_step_on_empty_heap_is_a_no_op():
    loop = EventLoop()
    assert loop.step() is False
    assert loop.now == 0.0
