"""A discrete-event scheduler.

Most GeoProof experiments are request/response and advance the shared
:class:`~repro.netsim.clock.SimClock` inline, but the architecture
benchmark (Fig. 4) runs several actors concurrently -- periodic TPA
audits against multiple data centres, background load on the LAN.  The
scheduler provides the classic priority-queue event loop for those.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError
from repro.netsim.clock import SimClock


@dataclass(order=True)
class _ScheduledEvent:
    timestamp_ms: float
    sequence: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")


class EventScheduler:
    """A priority-queue discrete-event loop over a :class:`SimClock`."""

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock or SimClock()
        self._queue: list[_ScheduledEvent] = []
        self._sequence = itertools.count()

    def schedule_at(
        self, timestamp_ms: float, action: Callable[[], None], *, label: str = ""
    ) -> _ScheduledEvent:
        """Schedule ``action`` at an absolute simulated time."""
        if timestamp_ms < self.clock.now_ms():
            raise SimulationError(
                f"cannot schedule in the past: {timestamp_ms} < {self.clock.now_ms()}"
            )
        event = _ScheduledEvent(
            timestamp_ms=timestamp_ms,
            sequence=next(self._sequence),
            action=action,
            label=label,
        )
        heapq.heappush(self._queue, event)
        return event

    def schedule_after(
        self, delay_ms: float, action: Callable[[], None], *, label: str = ""
    ) -> _ScheduledEvent:
        """Schedule ``action`` after a relative delay."""
        if delay_ms < 0:
            raise SimulationError(f"delay must be >= 0, got {delay_ms}")
        return self.schedule_at(self.clock.now_ms() + delay_ms, action, label=label)

    def schedule_periodic(
        self,
        interval_ms: float,
        action: Callable[[], None],
        *,
        label: str = "",
        first_delay_ms: float | None = None,
    ) -> None:
        """Run ``action`` every ``interval_ms`` for as long as events run."""
        if interval_ms <= 0:
            raise SimulationError(f"interval must be > 0, got {interval_ms}")

        def tick() -> None:
            action()
            self.schedule_after(interval_ms, tick, label=label)

        self.schedule_after(
            interval_ms if first_delay_ms is None else first_delay_ms,
            tick,
            label=label,
        )

    def run_until(self, end_ms: float, *, max_events: int = 1_000_000) -> int:
        """Dispatch events until the queue empties or time reaches ``end_ms``.

        Returns the number of events executed.  ``max_events`` guards
        against runaway periodic schedules.
        """
        executed = 0
        while self._queue and executed < max_events:
            event = self._queue[0]
            if event.timestamp_ms > end_ms:
                break
            heapq.heappop(self._queue)
            self.clock.advance_to(event.timestamp_ms)
            event.action()
            executed += 1
        if executed >= max_events and self._queue:
            raise SimulationError(f"run_until exceeded {max_events} events")
        if end_ms != float("inf") and end_ms > self.clock.now_ms():
            self.clock.advance_to(end_ms)
        return executed

    def run_all(self) -> int:
        """Dispatch until the queue is empty."""
        return self.run_until(float("inf"))
