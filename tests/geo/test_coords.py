"""Great-circle geometry tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.geo.coords import GeoPoint, destination_point, haversine_km

latitudes = st.floats(-89.0, 89.0)
longitudes = st.floats(-179.0, 179.0)


class TestGeoPoint:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ConfigurationError):
            GeoPoint(0.0, 181.0)

    def test_str_uses_label(self):
        assert "Brisbane" in str(GeoPoint(-27.47, 153.03, "Brisbane"))


class TestHaversine:
    def test_zero_distance(self):
        p = GeoPoint(-27.47, 153.03)
        assert haversine_km(p, p) == 0.0

    def test_symmetry(self):
        a, b = GeoPoint(-27.47, 153.03), GeoPoint(-33.87, 151.21)
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a))

    def test_brisbane_sydney(self):
        # Known great-circle distance ~733 km.
        a, b = GeoPoint(-27.4698, 153.0251), GeoPoint(-33.8688, 151.2093)
        assert 700 < haversine_km(a, b) < 760

    def test_brisbane_perth(self):
        a, b = GeoPoint(-27.4698, 153.0251), GeoPoint(-31.9523, 115.8613)
        assert 3500 < haversine_km(a, b) < 3700

    def test_equator_degree(self):
        # One degree of longitude at the equator ~111.2 km.
        a, b = GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0)
        assert 110.5 < haversine_km(a, b) < 111.8

    def test_antipodes(self):
        a, b = GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0)
        assert haversine_km(a, b) == pytest.approx(3.14159265 * 6371.0088, rel=1e-3)


class TestDestinationPoint:
    @given(latitudes, longitudes, st.floats(0, 360), st.floats(0, 5000))
    @settings(max_examples=50)
    def test_distance_preserved(self, lat, lon, bearing, distance):
        origin = GeoPoint(lat, lon)
        target = destination_point(origin, bearing, distance)
        assert haversine_km(origin, target) == pytest.approx(distance, abs=0.5)

    def test_due_north(self):
        origin = GeoPoint(0.0, 10.0)
        target = destination_point(origin, 0.0, 111.2)
        assert target.latitude == pytest.approx(1.0, abs=0.01)
        assert target.longitude == pytest.approx(10.0, abs=0.01)

    def test_rejects_negative_distance(self):
        with pytest.raises(ConfigurationError):
            destination_point(GeoPoint(0, 0), 0, -1)
