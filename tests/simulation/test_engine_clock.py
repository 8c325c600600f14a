"""Tests for the virtual clock and the discrete-event engine."""

import pytest

from repro.common.errors import SimulationError
from repro.simulation.clock import VirtualClock
from repro.simulation.engine import SimulationEngine
from tests.internals import cancelled_in_queue, queued_events


# ----------------------------------------------------------------------- clock
def test_clock_starts_at_zero_by_default():
    assert VirtualClock().now == 0.0


def test_clock_advance_to():
    clock = VirtualClock()
    clock.advance_to(1.5)
    clock.advance_to(3.0)
    assert clock.now == 3.0


def test_clock_cannot_rewind():
    clock = VirtualClock()
    clock.advance_to(5.0)
    with pytest.raises(SimulationError):
        clock.advance_to(1.0)


# ---------------------------------------------------------------------- engine
def test_events_run_in_timestamp_order():
    engine = SimulationEngine()
    order = []
    engine.schedule_at(2.0, lambda: order.append("late"))
    engine.schedule_at(1.0, lambda: order.append("early"))
    engine.run_until_idle()
    assert order == ["early", "late"]


def test_ties_broken_by_insertion_order():
    engine = SimulationEngine()
    order = []
    engine.schedule_at(1.0, lambda: order.append("first"))
    engine.schedule_at(1.0, lambda: order.append("second"))
    engine.run_until_idle()
    assert order == ["first", "second"]


def test_clock_advances_to_event_time():
    engine = SimulationEngine()
    seen = []
    engine.schedule_at(4.5, lambda: seen.append(engine.now))
    engine.run_until_idle()
    assert seen == [4.5]
    assert engine.now == 4.5


def test_schedule_in_is_relative():
    engine = SimulationEngine()
    engine.schedule_at(2.0, lambda: engine.schedule_in(3.0, lambda: None))
    engine.run_until_idle()
    assert engine.now == 5.0


def test_cannot_schedule_in_the_past():
    engine = SimulationEngine()
    engine.schedule_at(1.0, lambda: None)
    engine.run_until_idle()
    with pytest.raises(SimulationError):
        engine.schedule_at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule_in(-1.0, lambda: None)


def test_cancelled_events_are_skipped():
    engine = SimulationEngine()
    fired = []
    event = engine.schedule_at(1.0, lambda: fired.append(1))
    event.cancel()
    engine.run_until_idle()
    assert fired == []


def test_mass_cancellation_compacts_the_heap():
    """Cancelled retry timers must not linger in the heap until their
    (possibly far-future) timestamps are popped."""
    engine = SimulationEngine()
    fired = []
    keepers = [
        engine.schedule_at(10_000.0 + index, lambda i=index: fired.append(i))
        for index in range(10)
    ]
    timers = [
        engine.schedule_at(1_000_000.0 + index, lambda: fired.append("timer"))
        for index in range(1000)
    ]
    assert queued_events(engine) == 1010
    for timer in timers:
        timer.cancel()
    # Compaction kicked in repeatedly: the heap holds the 10 live events
    # plus at most a sub-threshold tail of dead ones (never the 1000).
    assert queued_events(engine) < SimulationEngine.COMPACT_MIN_QUEUE
    assert cancelled_in_queue(engine) == queued_events(engine) - 10
    engine.run_until_idle()
    assert fired == list(range(10))
    assert all(not keeper.cancelled for keeper in keepers)


def test_double_cancel_and_late_cancel_keep_accounting_consistent():
    engine = SimulationEngine()
    fired = []
    event = engine.schedule_at(1.0, lambda: fired.append(1))
    other = engine.schedule_at(2.0, lambda: fired.append(2))
    event.cancel()
    event.cancel()  # idempotent
    assert cancelled_in_queue(engine) == 1
    engine.run_until_idle()
    assert fired == [2]
    # Cancelling an event that already ran must not corrupt the counter.
    other.cancel()
    assert cancelled_in_queue(engine) == 0
    assert queued_events(engine) == 0


def test_compaction_preserves_daemon_idle_semantics():
    engine = SimulationEngine()
    fired = []
    engine.schedule_at(5.0, lambda: fired.append("work"))
    daemons = [
        engine.schedule_at(100.0 + index, lambda: fired.append("daemon"), daemon=True)
        for index in range(100)
    ]
    for daemon in daemons:
        daemon.cancel()
    engine.run_until_idle()
    # The sole non-daemon event ran; the engine went idle without waiting
    # on the cancelled daemons.
    assert fired == ["work"]


def test_run_until_horizon_advances_clock_to_horizon():
    engine = SimulationEngine()
    engine.schedule_at(1.0, lambda: None)
    engine.run(until=10.0)
    assert engine.now == 10.0


def test_run_until_leaves_later_events_queued():
    engine = SimulationEngine()
    fired = []
    engine.schedule_at(1.0, lambda: fired.append("a"))
    engine.schedule_at(20.0, lambda: fired.append("b"))
    engine.run(until=10.0)
    assert fired == ["a"]
    assert queued_events(engine) == 1


def test_run_until_idle_guards_against_runaway_rescheduling():
    engine = SimulationEngine()

    def reschedule():
        engine.schedule_in(0.001, reschedule)

    engine.schedule_in(0.0, reschedule)
    with pytest.raises(SimulationError):
        engine.run_until_idle(max_events=100)


def test_processed_event_count():
    engine = SimulationEngine()
    for i in range(5):
        engine.schedule_at(float(i), lambda: None)
    engine.run_until_idle()
    assert engine.processed_events == 5
