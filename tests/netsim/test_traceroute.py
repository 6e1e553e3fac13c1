"""Simulated ping/traceroute tests."""

import pytest

from repro.geo.coords import GeoPoint
from repro.netsim.topology import NetworkTopology, Node
from repro.netsim.traceroute import ping, traceroute


@pytest.fixture
def chain():
    topology = NetworkTopology()
    for i in range(4):
        topology.add_node(Node(f"n{i}", GeoPoint(0.0, float(i))))
    for i in range(3):
        topology.add_link(f"n{i}", f"n{i+1}", latency_ms=float(i + 1))
    return topology


class TestPing:
    def test_deterministic_without_rng(self, chain):
        result = ping(chain, "n0", "n3")
        # links 1+2+3 = 6 ms one way -> 12 ms RTT.
        assert result.rtt_avg_ms == pytest.approx(12.0)
        assert result.rtt_min_ms == result.rtt_max_ms

    def test_probe_floor(self, chain):
        assert ping(chain, "n0", "n1", n_probes=0).n_probes == 1


class TestTraceroute:
    def test_hop_sequence(self, chain):
        hops = traceroute(chain, "n0", "n3")
        assert [h.node for h in hops] == ["n1", "n2", "n3"]
        assert [h.hop for h in hops] == [1, 2, 3]

    def test_cumulative_rtts_monotone(self, chain):
        hops = traceroute(chain, "n0", "n3")
        rtts = [h.rtt_ms for h in hops]
        assert rtts == sorted(rtts)
        assert rtts[0] == pytest.approx(2.0)  # 1 ms link, both ways
        assert rtts[-1] == pytest.approx(12.0)

    def test_adjacent_nodes(self, chain):
        hops = traceroute(chain, "n0", "n1")
        assert len(hops) == 1
        assert hops[0].node == "n1"
