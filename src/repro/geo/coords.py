"""WGS-84 coordinates and great-circle geometry.

Distances use the haversine formula on a spherical Earth
(R = 6371.0088 km, the IUGG mean radius), which is what the "Google
Maps Distance Calculator" the paper used reports to within a fraction
of a percent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

EARTH_RADIUS_KM = 6371.0088


@dataclass(frozen=True)
class GeoPoint:
    """A latitude/longitude pair in decimal degrees (WGS-84)."""

    latitude: float
    longitude: float
    label: str = ""

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ConfigurationError(
                f"latitude must be in [-90, 90], got {self.latitude}"
            )
        if not -180.0 <= self.longitude <= 180.0:
            raise ConfigurationError(
                f"longitude must be in [-180, 180], got {self.longitude}"
            )

    def distance_km(self, other: "GeoPoint") -> float:
        """Great-circle distance to another point in kilometres."""
        return haversine_km(self, other)

    def __str__(self) -> str:
        name = self.label or "point"
        return f"{name}({self.latitude:.4f}, {self.longitude:.4f})"


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in kilometres."""
    phi1, phi2 = math.radians(a.latitude), math.radians(b.latitude)
    dphi = phi2 - phi1
    dlambda = math.radians(b.longitude - a.longitude)
    h = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlambda / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def destination_point(origin: GeoPoint, bearing_deg: float, distance_km: float) -> GeoPoint:
    """Point reached travelling ``distance_km`` along ``bearing_deg``.

    Used by the geolocation baselines to generate candidate positions
    and by tests to construct points at exact distances.
    """
    if distance_km < 0:
        raise ConfigurationError(f"distance must be >= 0, got {distance_km}")
    delta = distance_km / EARTH_RADIUS_KM
    theta = math.radians(bearing_deg)
    phi1 = math.radians(origin.latitude)
    lambda1 = math.radians(origin.longitude)
    phi2 = math.asin(
        math.sin(phi1) * math.cos(delta)
        + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    )
    lambda2 = lambda1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(phi1),
        math.cos(delta) - math.sin(phi1) * math.sin(phi2),
    )
    longitude = math.degrees(lambda2)
    longitude = (longitude + 540.0) % 360.0 - 180.0
    return GeoPoint(math.degrees(phi2), longitude)
