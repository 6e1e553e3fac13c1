"""Geolocation baselines: sane estimates, honest failure modes."""

import pytest

from repro.errors import ConfigurationError
from repro.geo.coords import GeoPoint, haversine_km
from repro.geoloc.base import GeolocationScheme
from repro.geoloc.geocluster import BGPTable, GeoCluster
from repro.geoloc.geoping import GeoPing
from repro.geoloc.geotrack import DNSHintDatabase, GeoTrack
from repro.geoloc.octant import OctantLike
from repro.geoloc.tbg import TopologyBasedGeolocation

from tests.geoloc.conftest import LANDMARKS


TARGET = "target-cbr"
TRUE_POSITION = GeoPoint(-35.28, 149.13)


class TestBaseValidation:
    def test_requires_landmarks(self, au_topology):
        with pytest.raises(ConfigurationError):
            GeoPing(au_topology, [])

    def test_unknown_landmark(self, au_topology):
        with pytest.raises(ConfigurationError):
            GeoPing(au_topology, ["nowhere"])


class TestGeoPing:
    def test_nearest_landmark_chosen(self, au_topology):
        scheme = GeoPing(au_topology, LANDMARKS)
        error = scheme.score(TARGET)
        # Canberra's delay vector is closest to Sydney's (~250 km off).
        assert error.estimate.position == au_topology.node("syd-lm").position
        assert error.error_km < 300.0

    def test_landmark_locates_itself(self, au_topology):
        scheme = GeoPing(au_topology, LANDMARKS)
        assert scheme.score("per-lm").error_km == pytest.approx(0.0, abs=1.0)

    def test_error_bounded_by_landmark_density(self, au_topology):
        # With only Perth as a landmark, everything "is" Perth: the
        # paper's >1000 km worst case emerges immediately.
        scheme = GeoPing(au_topology, ["per-lm"])
        assert scheme.score(TARGET).error_km > 1000.0


class TestOctant:
    def test_estimate_in_feasible_distance(self, au_topology):
        scheme = OctantLike(au_topology, LANDMARKS, grid_step_km=40.0)
        error = scheme.score(TARGET)
        assert error.error_km < 600.0

    def test_radius_reported(self, au_topology):
        scheme = OctantLike(au_topology, LANDMARKS, grid_step_km=40.0)
        estimate = scheme.locate(TARGET)
        assert estimate.radius_km >= 0.0


class TestProbeEstimatesPinned:
    """Exact estimates of the two ping-driven schemes on the AU backbone."""

    def test_geoping_estimate(self, au_topology):
        estimate = GeoPing(au_topology, LANDMARKS).locate(TARGET)
        position = estimate.position
        assert (position.latitude, position.longitude) == (-33.87, 151.21)
        assert estimate.radius_km == 0.0

    def test_octant_estimate(self, au_topology):
        estimate = OctantLike(au_topology, LANDMARKS, grid_step_km=40.0).locate(
            TARGET
        )
        position = estimate.position
        assert (position.latitude, position.longitude) == (
            -33.85292524668512,
            151.21000000000006,
        )
        assert estimate.radius_km == 361.89862856481716


class TestTBG:
    def test_beats_wild_guess(self, au_topology):
        scheme = TopologyBasedGeolocation(au_topology, LANDMARKS)
        error = scheme.score(TARGET)
        # The last-hop router (core-syd) pins Canberra near Sydney.
        assert error.error_km < 500.0

    def test_learns_router_positions(self, au_topology):
        scheme = TopologyBasedGeolocation(au_topology, LANDMARKS)
        estimate = scheme._router_estimates.get("core-syd-1.isp.net")
        assert estimate is not None
        true_router = au_topology.node("core-syd-1.isp.net").position
        assert haversine_km(estimate, true_router) < 500.0


class TestGeoTrack:
    def test_resolves_via_router_names(self, au_topology):
        dns = DNSHintDatabase()
        dns.add("syd", GeoPoint(-33.87, 151.21))
        dns.add("mel", GeoPoint(-37.81, 144.96))
        scheme = GeoTrack(au_topology, LANDMARKS, dns)
        error = scheme.score(TARGET)
        # Last resolvable router is core-syd -> locates at Sydney.
        assert error.error_km < 300.0

    def test_empty_database_degrades(self, au_topology):
        scheme = GeoTrack(au_topology, LANDMARKS, DNSHintDatabase())
        error = scheme.score(TARGET)
        # Falls back to the first landmark -- potentially way off.
        assert error.estimate.position == au_topology.node(LANDMARKS[0]).position


class TestGeoCluster:
    def make_bgp(self, au_topology, prefix_granularity: str) -> BGPTable:
        bgp = BGPTable()
        if prefix_granularity == "city":
            bgp.announce("10.1")  # Sydney-region prefix
            bgp.assign_address(TARGET, "10.1.7.9")
            bgp.add_known_location("10.1", GeoPoint(-33.87, 151.21))
            bgp.add_known_location("10.1", GeoPoint(-35.28, 149.13))
        else:  # continental prefix
            bgp.announce("10")
            bgp.assign_address(TARGET, "10.1.7.9")
            bgp.add_known_location("10", GeoPoint(-33.87, 151.21))
            bgp.add_known_location("10", GeoPoint(-31.95, 115.86))  # Perth!
        return bgp

    def test_fine_prefix_accurate(self, au_topology):
        scheme = GeoCluster(au_topology, LANDMARKS, self.make_bgp(au_topology, "city"))
        assert scheme.score(TARGET).error_km < 250.0

    def test_coarse_prefix_paper_failure_mode(self, au_topology):
        """Continental prefixes -> >1000 km errors (the paper's point)."""
        scheme = GeoCluster(
            au_topology, LANDMARKS, self.make_bgp(au_topology, "continent")
        )
        assert scheme.score(TARGET).error_km > 1000.0

    def test_longest_prefix_match(self):
        bgp = BGPTable()
        bgp.announce("10")
        bgp.announce("10.1")
        assert bgp.longest_prefix("10.1.2.3") == "10.1"
        assert bgp.longest_prefix("10.9.2.3") == "10"
        assert bgp.longest_prefix("192.168.0.1") is None

    def test_unknown_address_falls_back(self, au_topology):
        scheme = GeoCluster(au_topology, LANDMARKS, BGPTable())
        estimate = scheme.locate(TARGET)
        assert estimate.position == au_topology.node(LANDMARKS[0]).position


class TestComparative:
    def test_all_schemes_run_on_same_topology(self, au_topology):
        """The Section III-B survey: every scheme yields an estimate."""
        dns = DNSHintDatabase()
        dns.add("syd", GeoPoint(-33.87, 151.21))
        bgp = BGPTable()
        bgp.announce("10.1")
        bgp.assign_address(TARGET, "10.1.7.9")
        bgp.add_known_location("10.1", GeoPoint(-33.87, 151.21))
        schemes: list[GeolocationScheme] = [
            GeoPing(au_topology, LANDMARKS),
            OctantLike(au_topology, LANDMARKS, grid_step_km=60.0),
            TopologyBasedGeolocation(au_topology, LANDMARKS),
            GeoTrack(au_topology, LANDMARKS, dns),
            GeoCluster(au_topology, LANDMARKS, bgp),
        ]
        for scheme in schemes:
            error = scheme.score(TARGET)
            assert error.error_km < 4000.0, scheme.name
            assert error.estimate.scheme == scheme.name
