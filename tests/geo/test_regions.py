"""Geofence region tests."""

import pytest

from repro.errors import ConfigurationError
from repro.geo.coords import GeoPoint, destination_point
from repro.geo.regions import (
    AUSTRALIA_OUTLINE,
    CircularRegion,
    PolygonRegion,
)


class TestCircularRegion:
    def test_contains_centre(self):
        region = CircularRegion(GeoPoint(-27.47, 153.03), 100.0)
        assert region.contains(GeoPoint(-27.47, 153.03))

    def test_boundary_inclusive(self):
        centre = GeoPoint(-27.47, 153.03)
        region = CircularRegion(centre, 100.0)
        edge = destination_point(centre, 90.0, 99.9)
        outside = destination_point(centre, 90.0, 100.5)
        assert region.contains(edge)
        assert not region.contains(outside)

    def test_rejects_negative_radius(self):
        with pytest.raises(ConfigurationError):
            CircularRegion(GeoPoint(0, 0), -1.0)

    def test_describe(self):
        assert "km" in CircularRegion(GeoPoint(0, 0), 50).describe()


class TestPolygonRegion:
    SQUARE = PolygonRegion(
        [GeoPoint(0, 0), GeoPoint(0, 10), GeoPoint(10, 10), GeoPoint(10, 0)]
    )

    def test_interior(self):
        assert self.SQUARE.contains(GeoPoint(5, 5))

    def test_exterior(self):
        assert not self.SQUARE.contains(GeoPoint(15, 5))
        assert not self.SQUARE.contains(GeoPoint(5, -1))

    def test_needs_three_vertices(self):
        with pytest.raises(ConfigurationError):
            PolygonRegion([GeoPoint(0, 0), GeoPoint(1, 1)])

    def test_concave_polygon(self):
        # L-shape: the notch must be outside.
        shape = PolygonRegion(
            [
                GeoPoint(0, 0),
                GeoPoint(0, 10),
                GeoPoint(5, 10),
                GeoPoint(5, 5),
                GeoPoint(10, 5),
                GeoPoint(10, 0),
            ]
        )
        assert shape.contains(GeoPoint(2, 2))
        assert shape.contains(GeoPoint(2, 8))
        assert not shape.contains(GeoPoint(8, 8))  # inside the notch


class TestAustraliaOutline:
    def test_capitals_inside(self):
        for lat, lon in [(-27.47, 153.03), (-33.87, 151.21), (-37.81, 144.96), (-31.95, 115.86)]:
            assert AUSTRALIA_OUTLINE.contains(GeoPoint(lat, lon)), (lat, lon)

    def test_foreign_cities_outside(self):
        for lat, lon in [(1.35, 103.82), (35.68, 139.65), (-36.85, 174.76)]:
            assert not AUSTRALIA_OUTLINE.contains(GeoPoint(lat, lon)), (lat, lon)
