"""Topology routing and latency accumulation."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.geo.coords import GeoPoint
from repro.netsim.topology import NetworkTopology, Node


@pytest.fixture
def line_topology():
    """a -- b -- c with 1 ms and 2 ms links."""
    topology = NetworkTopology()
    for name, lon in (("a", 0.0), ("b", 1.0), ("c", 2.0)):
        topology.add_node(Node(name=name, position=GeoPoint(0.0, lon)))
    topology.add_link("a", "b", latency_ms=1.0)
    topology.add_link("b", "c", latency_ms=2.0)
    return topology


class TestConstruction:
    def test_duplicate_node_rejected(self, line_topology):
        with pytest.raises(ConfigurationError):
            line_topology.add_node(Node("a", GeoPoint(0, 0)))

    def test_link_to_unknown_node_rejected(self, line_topology):
        with pytest.raises(ConfigurationError):
            line_topology.add_link("a", "zz")

    def test_auto_latency_from_distance(self):
        topology = NetworkTopology()
        topology.add_node(Node("x", GeoPoint(0.0, 0.0)))
        topology.add_node(Node("y", GeoPoint(0.0, 1.0)))  # ~111 km
        link = topology.add_link("x", "y", inflation=1.0)
        assert link.latency_ms == pytest.approx(111.2 / 200.0, rel=0.01)


class TestRouting:
    def test_shortest_path(self, line_topology):
        assert line_topology.shortest_path("a", "c") == ["a", "b", "c"]

    def test_prefers_lower_latency(self, line_topology):
        line_topology.add_link("a", "c", latency_ms=10.0)
        assert line_topology.shortest_path("a", "c") == ["a", "b", "c"]
        line_topology2 = line_topology
        # A faster direct link flips the choice (need a fresh graph edge
        # weight -- networkx keeps one edge per pair, so re-adding
        # overwrites).
        line_topology2.add_link("a", "c", latency_ms=0.5)
        assert line_topology2.shortest_path("a", "c") == ["a", "c"]

    def test_no_path(self):
        topology = NetworkTopology()
        topology.add_node(Node("a", GeoPoint(0, 0)))
        topology.add_node(Node("b", GeoPoint(0, 1)))
        with pytest.raises(SimulationError):
            topology.shortest_path("a", "b")

    def test_one_way_latency_sums_links(self, line_topology):
        assert line_topology.one_way_ms("a", "c") == pytest.approx(3.0)

    def test_rtt_doubles(self, line_topology):
        assert line_topology.rtt_ms("a", "c") == pytest.approx(6.0)

    def test_trivial_path(self, line_topology):
        assert line_topology.path_latency_ms(["a"]) == 0.0
