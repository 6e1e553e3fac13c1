"""Discrete-event scheduler semantics."""

import pytest

from repro.errors import SimulationError
from repro.netsim.events import EventScheduler


class TestScheduling:
    def test_events_fire_in_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule_at(5.0, lambda: order.append("b"))
        scheduler.schedule_at(1.0, lambda: order.append("a"))
        scheduler.schedule_at(9.0, lambda: order.append("c"))
        scheduler.run_all()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule_at(1.0, lambda: order.append(1))
        scheduler.schedule_at(1.0, lambda: order.append(2))
        scheduler.run_all()
        assert order == [1, 2]

    def test_clock_advances_to_event_time(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.schedule_at(7.0, lambda: seen.append(scheduler.clock.now_ms()))
        scheduler.run_all()
        assert seen == [7.0]

    def test_schedule_after(self):
        scheduler = EventScheduler()
        scheduler.clock.advance(10.0)
        seen = []
        scheduler.schedule_after(5.0, lambda: seen.append(scheduler.clock.now_ms()))
        scheduler.run_all()
        assert seen == [15.0]

    def test_rejects_scheduling_in_past(self):
        scheduler = EventScheduler()
        scheduler.clock.advance(10.0)
        with pytest.raises(SimulationError):
            scheduler.schedule_at(5.0, lambda: None)

    def test_events_may_schedule_events(self):
        scheduler = EventScheduler()
        order = []

        def first():
            order.append("first")
            scheduler.schedule_after(1.0, lambda: order.append("second"))

        scheduler.schedule_at(1.0, first)
        scheduler.run_all()
        assert order == ["first", "second"]


class TestRunUntil:
    def test_stops_at_deadline(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_at(1.0, lambda: fired.append(1))
        scheduler.schedule_at(10.0, lambda: fired.append(10))
        executed = scheduler.run_until(5.0)
        assert executed == 1
        assert fired == [1]
        assert scheduler.clock.now_ms() == 5.0
        assert scheduler.run_all() == 1

    def test_resume_after_deadline(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_at(10.0, lambda: fired.append(10))
        scheduler.run_until(5.0)
        scheduler.run_until(15.0)
        assert fired == [10]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        scheduler = EventScheduler()
        fired = []
        event = scheduler.schedule_at(1.0, lambda: fired.append(1))
        EventScheduler.cancel(event)
        scheduler.run_all()
        assert fired == []

    def test_periodic_until_cancelled(self):
        scheduler = EventScheduler()
        ticks = []
        cancel = scheduler.schedule_periodic(10.0, lambda: ticks.append(scheduler.clock.now_ms()))
        scheduler.run_until(35.0)
        cancel()
        scheduler.run_until(100.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_periodic_first_delay(self):
        scheduler = EventScheduler()
        ticks = []
        scheduler.schedule_periodic(
            10.0, lambda: ticks.append(scheduler.clock.now_ms()), first_delay_ms=0.0
        )
        scheduler.run_until(25.0)
        assert ticks == [0.0, 10.0, 20.0]

    def test_runaway_guard(self):
        scheduler = EventScheduler()

        def rearm():
            scheduler.schedule_after(0.001, rearm)

        scheduler.schedule_after(0.001, rearm)
        with pytest.raises(SimulationError):
            scheduler.run_until(10.0, max_events=100)

    def test_n_processed(self):
        scheduler = EventScheduler()
        for t in (1.0, 2.0, 3.0):
            scheduler.schedule_at(t, lambda: None)
        assert scheduler.run_all() == 3

    def test_n_pending_excludes_cancelled_tombstones(self):
        """A cancelled event stays queued as a tombstone but never runs."""
        scheduler = EventScheduler()
        fired = []
        events = [
            scheduler.schedule_at(float(t), lambda t=t: fired.append(t))
            for t in (1, 2, 3)
        ]
        EventScheduler.cancel(events[1])
        # Dispatch pops past the tombstone: only live events execute.
        assert scheduler.run_all() == 2
        assert fired == [1, 3]
        assert scheduler.run_all() == 0
