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

from repro.crypto.rng import DeterministicRNG
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
    geographic distance plus router forwarding); ``jitter_ms`` adds an
    exponential term per traversal when sampling with an RNG.
    """

    a: str
    b: str
    latency_ms: float
    jitter_ms: float = 0.0


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
        jitter_ms: float = 0.0,
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
        link = Link(a=a, b=b, latency_ms=latency_ms, jitter_ms=jitter_ms)
        self._graph.add_edge(a, b, latency_ms=latency_ms, jitter_ms=jitter_ms)
        return link

    # -- queries ------------------------------------------------------------

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        if name not in self._nodes:
            raise ConfigurationError(f"unknown node {name!r}")
        return self._nodes[name]

    def nodes_of_kind(self, kind: str) -> list[Node]:
        """All nodes with the given role tag."""
        return [n for n in self._nodes.values() if n.kind == kind]

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

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

    def path_latency_ms(
        self, path: list[str], rng: DeterministicRNG | None = None
    ) -> float:
        """One-way latency along a node path (with optional jitter)."""
        if len(path) < 2:
            return 0.0
        total = 0.0
        for a, b in zip(path, path[1:]):
            data = self._graph.get_edge_data(a, b)
            if data is None:
                raise SimulationError(f"no link {a!r} -- {b!r}")
            total += data["latency_ms"]
            if rng is not None and data["jitter_ms"] > 0:
                total += rng.expovariate(1.0 / data["jitter_ms"])
        return total

    def one_way_ms(
        self, source: str, destination: str, rng: DeterministicRNG | None = None
    ) -> float:
        """Shortest-path one-way latency between two nodes."""
        return self.path_latency_ms(self.shortest_path(source, destination), rng)

    def rtt_ms(
        self, source: str, destination: str, rng: DeterministicRNG | None = None
    ) -> float:
        """Round-trip latency (two independent traversals)."""
        path = self.shortest_path(source, destination)
        return self.path_latency_ms(path, rng) + self.path_latency_ms(path, rng)


def build_geographic_topology(
    sites: dict[str, GeoPoint],
    *,
    backbone: list[tuple[str, str]] | None = None,
    inflation: float = 1.4,
    per_link_jitter_ms: float = 0.1,
) -> NetworkTopology:
    """Build a topology from named sites.

    With ``backbone=None`` every pair of sites is connected directly
    (a full mesh at inflated-fibre latency); otherwise only the listed
    pairs are linked and traffic routes through intermediate sites --
    which is what makes TBG-style topology measurements meaningful.
    """
    topology = NetworkTopology()
    for name, position in sites.items():
        topology.add_node(Node(name=name, position=position, kind="router"))
    pairs = backbone
    if pairs is None:
        names = list(sites)
        pairs = [
            (names[i], names[j])
            for i in range(len(names))
            for j in range(i + 1, len(names))
        ]
    for a, b in pairs:
        topology.add_link(a, b, inflation=inflation, jitter_ms=per_link_jitter_ms)
    return topology
