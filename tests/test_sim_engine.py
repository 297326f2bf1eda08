"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.sim.engine import Engine
from repro.sim.events import Priority


def test_initial_state():
    eng = Engine()
    assert eng.now == 0.0
    assert eng.pending == 0
    assert eng.events_fired == 0
    assert eng.peek() is None


def test_schedule_and_run_order():
    eng = Engine()
    fired = []
    eng.schedule(3.0, lambda now: fired.append(("c", now)))
    eng.schedule(1.0, lambda now: fired.append(("a", now)))
    eng.schedule(2.0, lambda now: fired.append(("b", now)))
    count = eng.run()
    assert count == 3
    assert fired == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
    assert eng.now == 3.0


def test_same_time_fifo_within_priority():
    eng = Engine()
    fired = []
    for tag in "abc":
        eng.schedule(1.0, lambda now, t=tag: fired.append(t))
    eng.run()
    assert fired == ["a", "b", "c"]


def test_priority_ordering_at_same_time():
    eng = Engine()
    fired = []
    eng.schedule(1.0, lambda now: fired.append("timer"), priority=Priority.TIMER)
    eng.schedule(1.0, lambda now: fired.append("delivery"), priority=Priority.DELIVERY)
    eng.schedule(1.0, lambda now: fired.append("monitor"), priority=Priority.MONITOR)
    eng.schedule(1.0, lambda now: fired.append("normal"), priority=Priority.NORMAL)
    eng.run()
    assert fired == ["delivery", "normal", "timer", "monitor"]


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SchedulingError):
        eng.schedule(-0.1, lambda now: None)


def test_nan_delay_rejected():
    eng = Engine()
    with pytest.raises(SchedulingError):
        eng.schedule(float("nan"), lambda now: None)


def test_schedule_at_past_rejected():
    eng = Engine()
    eng.schedule(5.0, lambda now: None)
    eng.run()
    assert eng.now == 5.0
    with pytest.raises(SchedulingError):
        eng.schedule_at(4.0, lambda now: None)


def test_cancel_event():
    eng = Engine()
    fired = []
    handle = eng.schedule(1.0, lambda now: fired.append("x"))
    assert handle.cancel() is True
    assert handle.cancel() is False  # second cancel is a no-op
    eng.run()
    assert fired == []
    assert eng.pending == 0


def test_run_until_horizon():
    eng = Engine()
    fired = []
    eng.schedule(1.0, lambda now: fired.append(1))
    eng.schedule(5.0, lambda now: fired.append(5))
    eng.schedule(10.0, lambda now: fired.append(10))
    eng.run(until=5.0)
    assert fired == [1, 5]  # events exactly at the horizon still fire
    assert eng.now == 5.0
    assert eng.pending == 1
    eng.run()
    assert fired == [1, 5, 10]


def test_run_until_advances_clock_when_queue_short():
    eng = Engine()
    eng.schedule(1.0, lambda now: None)
    eng.run(until=42.0)
    assert eng.now == 42.0


def test_nested_scheduling_from_callback():
    eng = Engine()
    fired = []

    def first(now):
        fired.append(("first", now))
        eng.schedule(2.0, lambda t: fired.append(("second", t)))

    eng.schedule(1.0, first)
    eng.run()
    assert fired == [("first", 1.0), ("second", 3.0)]


def test_stop_from_callback():
    eng = Engine()
    fired = []
    eng.schedule(1.0, lambda now: (fired.append(1), eng.stop()))
    eng.schedule(2.0, lambda now: fired.append(2))
    eng.run()
    assert fired == [1]
    assert eng.pending == 1


def test_step_returns_false_on_empty():
    eng = Engine()
    assert eng.step() is False


def test_peek_skips_cancelled():
    eng = Engine()
    h = eng.schedule(1.0, lambda now: None)
    eng.schedule(2.0, lambda now: None)
    h.cancel()
    assert eng.peek() == 2.0


def test_reentrant_run_rejected():
    eng = Engine()

    def nested(now):
        eng.run()

    eng.schedule(1.0, nested)
    with pytest.raises(SchedulingError):
        eng.run()


def test_zero_delay_fires_at_current_time():
    eng = Engine()
    times = []
    eng.schedule(1.0, lambda now: eng.schedule(0.0, lambda t: times.append(t)))
    eng.run()
    assert times == [1.0]


def test_events_fired_counter():
    eng = Engine()
    for i in range(5):
        eng.schedule(float(i), lambda now: None)
    eng.run()
    assert eng.events_fired == 5
