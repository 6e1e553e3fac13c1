"""Network topology: nodes, links, and shortest-latency routing.

The geolocation baselines (GeoPing, TBG, GeoTrack) and the Fig. 4
architecture benchmark need an actual network graph -- landmarks probe
targets *through* routers, and path latency is a sum of link latencies,
not a straight-line formula.  :class:`NetworkTopology` wraps a
:mod:`networkx` graph whose nodes carry geographic positions and whose
edges carry latency models.

networkx is imported on the first topology build, not with this
module: the daemon, fleet and audit paths import :mod:`repro.netsim`
but never build a topology, so they never pay for loading it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SimulationError
from repro.geo.coords import GeoPoint, haversine_km
from repro.netsim.latency import FIBRE_SPEED_KM_PER_MS


@dataclass(frozen=True)
class Node:
    """A network node: name, position, and role tag.

    ``kind`` is free-form ("router", "landmark", "target", "datacentre",
    "verifier"); the geolocation schemes filter on it.
    """

    name: str
    position: GeoPoint
    kind: str = "router"


@dataclass(frozen=True)
class Link:
    """A bidirectional link with a fixed latency budget.

    ``latency_ms`` is the one-way link latency (propagation over the
    geographic distance plus router forwarding).
    """

    a: str
    b: str
    latency_ms: float


class NetworkTopology:
    """A latency-weighted network graph."""

    def __init__(self) -> None:
        import networkx as nx

        self._graph = nx.Graph()
        self._nodes: dict[str, Node] = {}

    # -- construction ----------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Add a node; names must be unique."""
        if node.name in self._nodes:
            raise ConfigurationError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._graph.add_node(node.name)

    def add_link(
        self,
        a: str,
        b: str,
        *,
        latency_ms: float | None = None,
        inflation: float = 1.0,
    ) -> Link:
        """Link two nodes.

        With ``latency_ms=None`` the latency is computed from the
        great-circle distance at fibre speed times ``inflation``
        (cable paths are never straight lines; 1.2-2.0 is realistic).
        """
        for name in (a, b):
            if name not in self._nodes:
                raise ConfigurationError(f"unknown node {name!r}")
        if latency_ms is None:
            distance_km = haversine_km(
                self._nodes[a].position, self._nodes[b].position
            )
            latency_ms = inflation * distance_km / FIBRE_SPEED_KM_PER_MS
        if latency_ms < 0:
            raise ConfigurationError(f"latency must be >= 0, got {latency_ms}")
        link = Link(a=a, b=b, latency_ms=latency_ms)
        self._graph.add_edge(a, b, latency_ms=latency_ms)
        return link

    # -- queries ------------------------------------------------------------

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        if name not in self._nodes:
            raise ConfigurationError(f"unknown node {name!r}")
        return self._nodes[name]

    def shortest_path(self, source: str, destination: str) -> list[str]:
        """Minimum-latency path (Dijkstra on link latencies)."""
        import networkx as nx

        for name in (source, destination):
            if name not in self._nodes:
                raise ConfigurationError(f"unknown node {name!r}")
        try:
            return nx.shortest_path(
                self._graph, source, destination, weight="latency_ms"
            )
        except nx.NetworkXNoPath as exc:
            raise SimulationError(
                f"no path from {source!r} to {destination!r}"
            ) from exc

    def path_latency_ms(self, path: list[str]) -> float:
        """One-way latency along a node path."""
        if len(path) < 2:
            return 0.0
        total = 0.0
        for a, b in zip(path, path[1:]):
            data = self._graph.get_edge_data(a, b)
            if data is None:
                raise SimulationError(f"no link {a!r} -- {b!r}")
            total += data["latency_ms"]
        return total

    def one_way_ms(self, source: str, destination: str) -> float:
        """Shortest-path one-way latency between two nodes."""
        return self.path_latency_ms(self.shortest_path(source, destination))

    def rtt_ms(self, source: str, destination: str) -> float:
        """Round-trip latency (two traversals of the shortest path)."""
        path = self.shortest_path(source, destination)
        return self.path_latency_ms(path) + self.path_latency_ms(path)
