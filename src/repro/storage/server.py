"""The storage server: lookups cost simulated disk time.

A :class:`StorageServer` owns an
:class:`~repro.storage.contract.InMemoryStorage` segment store and an
:class:`~repro.storage.hdd.HDDModel`.  ``lookup()`` returns both the
segment and the *time the lookup took* -- the Delta-t_L component of
GeoProof's round-trip budget.  Every lookup costs exactly the
datasheet seek + rotate + transfer (the paper's arithmetic).

Design note: the server has two timing modes.

* **Dedicated (default)**: the server *reports* time rather than
  advancing any clock, so the same server can sit behind different
  channels (LAN in the honest case, LAN + Internet relay in the attack
  case) whose protocol engines do their own time accounting.  This is
  the single-session shape.
* **Shared/queued**: with a :class:`~repro.netsim.resources.SpindleQueue`
  passed as ``spindle`` *and* a requester clock bound for the duration
  of a batch (:meth:`timed_with`), the server becomes a shared
  resource: each lookup presents its arrival time (read off the bound
  clock) to the spindle queue and pays ``queue wait + seek + rotate +
  transfer``.  Several audit lanes hitting one spindle then contend
  realistically -- the wait is reported in the
  :class:`~repro.storage.contract.ServeResult`, split out by
  :class:`ServeWindow`, and classified on the requesting
  lane's clock (:meth:`~repro.netsim.lanes.LaneClock.record_wait`).
  With a dedicated spindle (one requester) the wait is identically
  zero and the two modes report the same numbers, which is what keeps
  the fleet's slot-vs-event equivalence anchor intact.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.netsim.resources import SpindleQueue
from repro.storage.contract import InMemoryStorage, ServeResult
from repro.storage.hdd import HDDModel, HDDSpec, WD_2500JD


class StorageServer:
    """A disk-backed segment server.

    Parameters
    ----------
    disk:
        The HDD spec (defaults to the paper's "average" WD 2500JD).
    spindle:
        Optional :class:`~repro.netsim.resources.SpindleQueue` turning
        the server into a shared, queued resource (see the module
        docstring); share one queue between several servers' *sites*
        by passing the same instance.
    """

    def __init__(
        self,
        disk: HDDSpec = WD_2500JD,
        *,
        spindle: SpindleQueue | None = None,
    ) -> None:
        self.store = InMemoryStorage()
        self.disk = HDDModel(disk)
        self.spindle = spindle
        self._service_clock = None
        self.n_lookups = 0
        self.total_disk_ms = 0.0
        self.total_wait_ms = 0.0

    @contextmanager
    def timed_with(self, clock):
        """Bind the requester's clock for a block of lookups::

            with server.timed_with(lane.clock):
                ... audit rounds ...

        While bound, each lookup reads its spindle-queue arrival time
        off ``clock.now_ms()`` (the protocol engine advances the clock
        through the LAN hop before the request reaches the disk, so
        "now" *is* the arrival time).  If the clock exposes
        ``record_wait`` (:class:`~repro.netsim.lanes.LaneClock`), queue
        waits are classified on it as well.  Without a bound clock the
        server cannot know when requests arrive and serves unqueued.
        """
        previous = self._service_clock
        self._service_clock = clock
        try:
            yield self
        finally:
            self._service_clock = previous

    def _spindle_wait_ms(self, disk_ms: float) -> float:
        """The queue wait for one lookup, if the shared mode is active."""
        if self.spindle is None or self._service_clock is None:
            return 0.0
        grant = self.spindle.acquire(
            self._service_clock.now_ms(), disk_ms
        )
        if grant.wait_ms > 0.0:
            record = getattr(self._service_clock, "record_wait", None)
            if record is not None:
                record(grant.wait_ms)
        return grant.wait_ms

    def lookup(self, file_id: bytes, index: int, served_by: str) -> ServeResult:
        """Fetch a segment, charging disk time plus any queue wait.

        ``served_by`` names the site the record reports (the view over
        this server that the request came through).
        """
        segment = self.store.get_segment(file_id, index)
        disk_ms = self.disk.lookup_ms(segment.size_bytes)
        wait_ms = self._spindle_wait_ms(disk_ms)
        self.n_lookups += 1
        self.total_disk_ms += disk_ms
        self.total_wait_ms += wait_ms
        return ServeResult(
            segment=segment,
            elapsed_ms=wait_ms + disk_ms,
            served_by=served_by,
            wait_ms=wait_ms,
        )

    def serve_window(self) -> "ServeWindow":
        """Meter the spindle across a block of lookups::

            with server.serve_window() as window:
                ... batched lookups ...
            spindle_busy = window.disk_ms
            contention = window.wait_ms

        The deltas separate pure disk time (seek + rotate + transfer,
        the part that serialises on one spindle) from queue wait (time
        parked behind other lanes' service on a shared spindle), so a
        scheduling lane can tell how much of its busy interval was
        spindle work, how much was contention, and how much was LAN
        time.
        """
        return ServeWindow(self)


class ServeWindow:
    """Context manager capturing one server's disk and wait deltas."""

    def __init__(self, server: StorageServer) -> None:
        self._server = server
        self.disk_ms = 0.0
        self.wait_ms = 0.0

    def __enter__(self) -> "ServeWindow":
        self._mark = (self._server.total_disk_ms, self._server.total_wait_ms)
        return self

    def __exit__(self, *exc_info) -> None:
        disk, wait = self._mark
        self.disk_ms = self._server.total_disk_ms - disk
        self.wait_ms = self._server.total_wait_ms - wait
