"""Network simulation substrate.

GeoProof's security argument is entirely about *time*: LAN propagation,
Internet propagation at ~4/9 c, switch and queueing delays, and disk
look-up latency.  This package provides the simulated clock and the
latency models those arguments run on:

* :mod:`repro.netsim.clock` -- a monotonic simulated clock in
  milliseconds.
* :mod:`repro.netsim.events` -- a discrete-event scheduler for
  multi-actor simulations.
* :mod:`repro.netsim.lanes` -- sharded worker clocks
  (:class:`LaneClock`) and bounded work lanes (:class:`Lane`) for
  per-site concurrency on top of the scheduler.
* :mod:`repro.netsim.resources` -- shared, queued resources
  (:class:`SpindleQueue`): a FIFO service frontier several lanes can
  block on, with busy/wait accounting for contention reports.
* :mod:`repro.netsim.latency` -- channel models: LAN (fibre/copper +
  switches), Internet (4/9 c + routing overhead + jitter), and RF
  (speed of light) for classic distance bounding.
* :mod:`repro.netsim.topology` -- a networkx-backed graph of nodes and
  links with shortest-path routing and per-path latency.
* :mod:`repro.netsim.traceroute` -- simulated ping/traceroute over a
  topology (used by the TBG/GeoTrack baselines).
"""

from repro.netsim.clock import SimClock
from repro.netsim.events import EventScheduler
from repro.netsim.lanes import Lane, LaneClock
from repro.netsim.latency import (
    SPEED_OF_LIGHT_KM_PER_MS,
    InternetModel,
    LANModel,
    LatencyModel,
    RFChannelModel,
)
from repro.netsim.resources import SpindleQueue
from repro.netsim.topology import Link, NetworkTopology, Node
from repro.netsim.traceroute import ping, traceroute

__all__ = [
    "SimClock",
    "EventScheduler",
    "Lane",
    "LaneClock",
    "SpindleQueue",
    "LatencyModel",
    "LANModel",
    "InternetModel",
    "RFChannelModel",
    "SPEED_OF_LIGHT_KM_PER_MS",
    "NetworkTopology",
    "Node",
    "Link",
    "ping",
    "traceroute",
]
