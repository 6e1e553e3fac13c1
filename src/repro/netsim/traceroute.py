"""Simulated ping and traceroute.

The paper's own evidence tables were gathered with ``traceroute``/
``ping`` (Tables II and III), and the geolocation baselines issue
probes: GeoPing needs RTTs from landmarks, TBG needs per-hop RTTs from
traceroutes.  These helpers run those probes over a
:class:`~repro.netsim.topology.NetworkTopology`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netsim.topology import NetworkTopology


@dataclass(frozen=True)
class PingResult:
    """Result of a ping: min/avg/max RTT over ``n_probes`` samples."""

    source: str
    destination: str
    n_probes: int
    rtt_min_ms: float
    rtt_avg_ms: float
    rtt_max_ms: float


@dataclass(frozen=True)
class TracerouteHop:
    """One traceroute hop: node name and cumulative RTT to it."""

    hop: int
    node: str
    rtt_ms: float


def ping(
    topology: NetworkTopology,
    source: str,
    destination: str,
    *,
    n_probes: int = 4,
) -> PingResult:
    """RTT statistics over ``n_probes`` probes.

    Probes are deterministic (``rtt_ms`` walks the same shortest path
    every time), so the path is found once and every probe reads it.
    """
    samples = [topology.rtt_ms(source, destination)] * max(1, n_probes)
    return PingResult(
        source=source,
        destination=destination,
        n_probes=len(samples),
        rtt_min_ms=min(samples),
        rtt_avg_ms=sum(samples) / len(samples),
        rtt_max_ms=max(samples),
    )


def traceroute(
    topology: NetworkTopology,
    source: str,
    destination: str,
) -> list[TracerouteHop]:
    """Per-hop cumulative RTTs along the shortest path.

    Mirrors real traceroute output: hop *i* reports the RTT from the
    source to the *i*-th node on the path.
    """
    path = topology.shortest_path(source, destination)
    hops: list[TracerouteHop] = []
    for i in range(1, len(path)):
        prefix = path[: i + 1]
        rtt_ms = 2 * topology.path_latency_ms(prefix)
        hops.append(TracerouteHop(hop=i, node=path[i], rtt_ms=rtt_ms))
    return hops
