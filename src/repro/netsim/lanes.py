"""Sharded worker clocks and bounded audit lanes.

GeoProof's architecture (Fig. 4) puts one tamper-proof verifier on the
LAN of *each* data centre, so work at different sites is physically
concurrent: a slow disk seek in Brisbane does not delay a challenge
round in Melbourne.  This module provides the shard abstraction that
lets a discrete-event simulation model that concurrency while staying
deterministic:

* :class:`LaneClock` -- a per-shard worker clock.  Each lane advances
  its own simulated time while it works; the fleet-wide
  :class:`~repro.netsim.events.EventScheduler` (on the global
  :class:`~repro.netsim.clock.SimClock`) only decides *when* each
  lane's next unit of work may start.  A lane's clock may therefore run
  ahead of the global clock -- that is exactly the overlap the shard
  model buys.
* :class:`Lane` -- a :class:`LaneClock` plus a bounded in-flight queue
  of pending work, dispatched through an :class:`EventScheduler`.
  Work submitted while the lane is busy queues at the lane's frontier
  (FIFO, deterministic); work beyond the queue bound is dropped and
  counted, so a saturated shard degrades by shedding load rather than
  by growing an unbounded backlog.

Merging is trivial by construction: every unit of work carries the
lane-local timestamps it ran at, and the caller interleaves completed
work from all lanes by timestamp (ties broken by dispatch order, which
the scheduler keeps FIFO).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SimulationError
from repro.netsim.clock import SimClock
from repro.netsim.events import EventScheduler


class LaneClock(SimClock):
    """A named per-shard worker clock with busy-interval accounting.

    The clock distinguishes *busy* time (inside a
    :meth:`begin_busy`/:meth:`end_busy` bracket, while the shard is
    actually working) from idle time it merely jumps over, so
    utilization is ``busy_ms / span`` without the caller keeping its
    own ledger.  Within a busy interval, :meth:`record_wait` further
    splits out time the shard spent *parked on a shared resource*
    (e.g. a :class:`~repro.netsim.resources.SpindleQueue` serving
    several lanes): ``waiting_ms`` is the contention share of
    ``busy_ms``, so a lane can report how much of its busy interval
    was queue wait rather than productive work.
    """

    def __init__(self, name: str, start_ms: float = 0.0) -> None:
        super().__init__(start_ms)
        self.name = name
        self.busy_ms = 0.0
        #: Share of busy time spent queued on shared resources.
        self.waiting_ms = 0.0
        self._busy_since: float | None = None

    @property
    def frontier_ms(self) -> float:
        """Where this shard's local time has reached."""
        return self.now_ms()

    def begin_busy(self, start_ms: float) -> float:
        """Open a busy interval no earlier than ``start_ms``.

        Idle time up to ``start_ms`` is jumped over (not counted as
        busy); if the lane's frontier is already past ``start_ms`` the
        interval opens at the frontier instead -- a shard cannot start
        new work in its own past.
        """
        if self._busy_since is not None:
            raise SimulationError(
                f"lane {self.name!r} is already inside a busy interval"
            )
        self.advance_to(max(self.now_ms(), start_ms))
        self._busy_since = self.now_ms()
        return self._busy_since

    def record_wait(self, wait_ms: float) -> None:
        """Attribute ``wait_ms`` of the lane's time to resource waits.

        Called by shared resources (via the timed service context a
        server is bound with) as they grant queued service; the wait
        itself still elapses on this clock through the normal
        ``advance`` path, so this only *classifies* time, never adds
        any.
        """
        if wait_ms < 0:
            raise SimulationError(
                f"lane {self.name!r}: wait must be >= 0, got {wait_ms}"
            )
        self.waiting_ms += wait_ms

    def end_busy(self) -> float:
        """Close the open busy interval; returns its duration in ms."""
        if self._busy_since is None:
            raise SimulationError(
                f"lane {self.name!r} has no open busy interval"
            )
        elapsed_ms = self.now_ms() - self._busy_since
        self.busy_ms += elapsed_ms
        self._busy_since = None
        return elapsed_ms


#: Work dispatched onto a lane: runs synchronously on the lane's clock,
#: advancing it as the (simulated) work proceeds.
LaneWork = Callable[[LaneClock], None]


class Lane:
    """A worker shard: one :class:`LaneClock` plus a bounded queue.

    Work is submitted from scheduler events (e.g. periodic slot ticks
    on the global clock).  If the lane is idle the work runs
    immediately, advancing only the *lane* clock; if the lane is busy
    the work is queued as a scheduler event at the lane's current
    frontier, up to ``queue_limit`` outstanding units -- beyond that
    the submission is dropped and counted in :attr:`dropped`.

    Queued units fire in FIFO order (the scheduler breaks timestamp
    ties by insertion sequence), and each runs from
    ``max(event time, lane frontier)``, so a chain of queued units
    executes back-to-back even though their completion times were
    unknown when they were enqueued.
    """

    def __init__(
        self,
        name: str,
        scheduler: EventScheduler,
        *,
        queue_limit: int = 4,
        start_ms: float | None = None,
    ) -> None:
        if queue_limit < 1:
            raise SimulationError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        self.name = name
        self.scheduler = scheduler
        self.clock = LaneClock(
            name,
            scheduler.clock.now_ms() if start_ms is None else start_ms,
        )
        self.queue_limit = queue_limit
        self.queued = 0
        self.peak_queue_depth = 0
        self.dropped = 0
        self.n_dispatched = 0

    @property
    def frontier_ms(self) -> float:
        """The lane-local time up to which this shard is committed."""
        return self.clock.frontier_ms

    def idle_at(self, now_ms: float) -> bool:
        """Whether the lane could start new work immediately at ``now_ms``."""
        return self.frontier_ms <= now_ms and self.queued == 0

    def submit(self, work: LaneWork, *, label: str = "") -> bool:
        """Dispatch ``work`` now if idle, else queue it at the frontier.

        Returns ``False`` (and counts a drop) when the bounded queue is
        full; the caller decides whether a dropped unit is rescheduled
        or simply shed (the fleet sheds -- the next slot tick offers
        fresh work anyway).
        """
        now = self.scheduler.clock.now_ms()
        if self.idle_at(now):
            self._run(work, now)
            return True
        if self.queued >= self.queue_limit:
            self.dropped += 1
            return False
        self.queued += 1
        self.peak_queue_depth = max(self.peak_queue_depth, self.queued)
        self.scheduler.schedule_at(
            max(now, self.frontier_ms),
            lambda: self._drain(work),
            label=label or f"lane:{self.name}",
        )
        return True

    def _drain(self, work: LaneWork) -> None:
        self.queued -= 1
        self._run(work, self.scheduler.clock.now_ms())

    def _run(self, work: LaneWork, at_ms: float) -> None:
        self.clock.begin_busy(at_ms)
        try:
            work(self.clock)
        finally:
            self.clock.end_busy()
        self.n_dispatched += 1
