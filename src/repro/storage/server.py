"""The storage server: lookups cost simulated disk time.

A :class:`StorageServer` owns an
:class:`~repro.storage.contract.InMemoryStorage` segment store and an
:class:`~repro.storage.hdd.HDDModel`.  ``lookup()`` returns both the
segment and the *time the lookup took* -- the Delta-t_L component of
GeoProof's round-trip budget.  Every lookup costs exactly the
datasheet seek + rotate + transfer (the paper's arithmetic).  That
cost depends only on the segment's size, so the server computes it
once per size and reuses it.

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
  realistically -- the wait is part of the
  :class:`~repro.storage.contract.ServeResult`'s elapsed time and is
  classified on the requesting lane's clock
  (:meth:`~repro.netsim.lanes.LaneClock.record_wait`).
  With a dedicated spindle (one requester) the wait is identically
  zero and the two modes report the same numbers, which is what keeps
  the fleet's slot-vs-event equivalence anchor intact.

The server keeps no counts of its own: the spindle is the one record
of the disk time it granted (``busy_ms``) and the queue wait its
requests absorbed (``wait_ms``).  A lookup served unqueued (no
spindle, or no bound clock) never reaches the spindle and is counted
nowhere; its cost is only the disk time it returns as ``elapsed_ms``.
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
        #: ``disk.lookup_ms`` per segment size, computed on first use.
        self._disk_ms: dict[int, float] = {}

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

    def lookup(self, file_id: bytes, index: int, served_by: str) -> ServeResult:
        """Fetch a segment, charging disk time plus any queue wait.

        ``served_by`` names the site the record reports (the view over
        this server that the request came through).  The disk time is
        ``disk.lookup_ms`` of the segment's size (payload plus tag),
        computed once per size.  Unless a spindle and a requester clock
        are both bound, the lookup skips the spindle and its elapsed
        time is that disk time alone.
        """
        segment = self.store.get_segment(file_id, index)
        size = len(segment.payload) + len(segment.tag)
        disk_ms = self._disk_ms.get(size)
        if disk_ms is None:
            disk_ms = self._disk_ms[size] = self.disk.lookup_ms(size)
        spindle, clock = self.spindle, self._service_clock
        if spindle is None or clock is None:
            return ServeResult(segment, disk_ms, served_by)
        wait_ms = spindle.acquire(clock.now_ms(), disk_ms)
        if wait_ms > 0.0:
            record = getattr(clock, "record_wait", None)
            if record is not None:
                record(wait_ms)
        return ServeResult(segment, wait_ms + disk_ms, served_by)
