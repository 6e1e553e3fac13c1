"""Shared, queued simulation resources.

GeoProof's round-trip budget is dominated by the disk-lookup term
Delta-t_L, and the security argument assumes that term is *hard to
fake* -- but it is also hard to *guarantee*: a spindle that serves
several audit lanes at once queues their requests, and every queued
millisecond is indistinguishable (to the verifier) from relay
headroom.  This module provides the shared-resource primitive that
lets the fleet simulation model that contention deterministically:

* :class:`SpindleQueue` -- a single-server FIFO queue with a *service
  frontier*.  Clients (audit lanes, each on its own
  :class:`~repro.netsim.lanes.LaneClock`) present an arrival time and
  a service duration; the queue grants service starting at
  ``max(arrival, frontier)`` and advances the frontier past the grant.
  The difference between the grant start and the arrival is the queue
  wait -- the contention-induced inflation of Delta-t_L.

Service order is **request order**: the discrete-event engine
dispatches lane batches deterministically (slot ticks in lane
registration order, FIFO within a timestamp), and each batch's
lookups acquire the spindle as they execute.  A lane whose clock runs
*behind* the frontier therefore waits behind service that was granted
earlier in dispatch order even when its own arrival timestamp is
smaller -- a conservative, deterministic model of a contended spindle
(the same simplification the lane queues themselves make).  With one
lane per spindle the frontier can never outrun the lane's own clock,
so every wait is exactly zero and the queue degenerates to the
uncontended dedicated-disk model -- the property the slot-vs-event
equivalence anchor relies on.

Accounting separates *busy* time (the spindle actually seeking,
rotating, transferring) from *wait* time (requests parked behind the
frontier), so reports can show per-spindle utilization next to the
queue wait that audits absorbed into their RTTs.
"""

from __future__ import annotations

from repro import obs
from repro.errors import SimulationError
from repro.obs.metrics import HistogramValue, MetricsRegistry

#: Per-request queue-wait histogram bounds (simulated milliseconds).
_WAIT_MS_BUCKETS = (0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0)


class SpindleQueue:
    """A single-server FIFO queue over a shared spindle's timeline.

    The queue keeps no event list of its own: because requests are
    presented in deterministic dispatch order (see the module
    docstring), FIFO service reduces to a running *frontier* --
    ``free_at_ms``, the time up to which the spindle's schedule is
    committed.  ``acquire`` is O(1) and the whole model stays
    reproducible run to run.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        #: The committed end of the spindle's service schedule.
        self.free_at_ms = 0.0
        #: Total service time granted (seek + rotate + transfer).
        self.busy_ms = 0.0
        #: Largest single-request wait since construction or the last
        #: :meth:`reset_peak` (a max cannot be windowed by delta, so
        #: per-run reporting resets it at each run start).
        self.peak_wait_ms = 0.0
        #: Requests that had to wait (``wait_ms > 0``).
        self.n_waited = 0
        #: This spindle's own registry.  Its wait histogram is the one
        #: record of granted requests (count) and absorbed wait (sum).
        self.metrics = MetricsRegistry()
        self._waits: HistogramValue = self.metrics.histogram(
            "repro_spindle_wait_ms",
            "Queue wait per granted lookup in simulated milliseconds",
            ("spindle",),
            buckets=_WAIT_MS_BUCKETS,
        ).labels(name).value
        obs.metrics().include(self.metrics)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SpindleQueue({self.name!r}, free_at={self.free_at_ms:.3f}, "
            f"busy={self.busy_ms:.3f}, wait={self.wait_ms:.3f})"
        )

    @property
    def n_requests(self) -> int:
        """Requests granted so far."""
        return self._waits.count

    @property
    def wait_ms(self) -> float:
        """Total queue wait absorbed by clients."""
        return self._waits.sum

    def reset_peak(self) -> None:
        """Start a fresh peak-wait window (sums stay cumulative)."""
        self.peak_wait_ms = 0.0

    def acquire(self, arrival_ms: float, service_ms: float) -> float:
        """Grant ``service_ms`` of spindle time; returns the queue wait.

        Service starts at ``max(arrival_ms, frontier)`` and pushes the
        frontier to its end.  The returned wait is what the caller must
        add to its own clock (lookup cost = queue wait +
        seek/rotate/transfer).
        """
        if arrival_ms < 0:
            raise SimulationError(
                f"arrival must be >= 0, got {arrival_ms}"
            )
        if service_ms < 0:
            raise SimulationError(
                f"service time must be >= 0, got {service_ms}"
            )
        start = max(arrival_ms, self.free_at_ms)
        wait = start - arrival_ms
        self.free_at_ms = start + service_ms
        self.busy_ms += service_ms
        self._waits.observe(wait)
        if wait > 0.0:
            self.n_waited += 1
            self.peak_wait_ms = max(self.peak_wait_ms, wait)
        return wait
