"""Geographic regions for SLA location constraints.

An SLA clause like "data must remain within Australia" becomes a
:class:`Region`; the TPA checks the verifier's GPS position -- and the
distance bound implied by the timing check -- against it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.geo.coords import GeoPoint, haversine_km


class Region(ABC):
    """Abstract geographic region."""

    @abstractmethod
    def contains(self, point: GeoPoint) -> bool:
        """True iff the point lies inside the region."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable description for audit reports."""


@dataclass(frozen=True)
class CircularRegion(Region):
    """All points within ``radius_km`` of a centre.

    This is the natural region type for GeoProof: the timing bound
    translates directly into a radius around the verifier device.
    """

    centre: GeoPoint
    radius_km: float

    def __post_init__(self) -> None:
        if self.radius_km < 0:
            raise ConfigurationError(
                f"radius must be >= 0, got {self.radius_km}"
            )

    def contains(self, point: GeoPoint) -> bool:
        """True iff the point is within the radius of the centre."""
        return haversine_km(self.centre, point) <= self.radius_km

    def describe(self) -> str:
        """Human-readable summary of the circle."""
        return f"within {self.radius_km:.0f} km of {self.centre}"


class PolygonRegion(Region):
    """A simple (non-self-intersecting) polygon via ray casting.

    Adequate for country/state outlines at SLA granularity; treats
    coordinates as planar, which is fine away from the antimeridian and
    poles.
    """

    def __init__(self, vertices: list[GeoPoint], label: str = "") -> None:
        if len(vertices) < 3:
            raise ConfigurationError(
                f"polygon needs >= 3 vertices, got {len(vertices)}"
            )
        self.vertices = list(vertices)
        self.label = label

    def contains(self, point: GeoPoint) -> bool:
        """Ray-casting point-in-polygon test."""
        x, y = point.longitude, point.latitude
        inside = False
        n = len(self.vertices)
        for i in range(n):
            x1, y1 = self.vertices[i].longitude, self.vertices[i].latitude
            x2, y2 = self.vertices[(i + 1) % n].longitude, self.vertices[(i + 1) % n].latitude
            if (y1 > y) != (y2 > y):
                x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if x < x_cross:
                    inside = not inside
        return inside

    def describe(self) -> str:
        """Human-readable summary of the polygon."""
        name = self.label or "polygon"
        return f"{name} ({len(self.vertices)} vertices)"


#: A coarse polygon outline of mainland Australia (SLA granularity).
AUSTRALIA_OUTLINE = PolygonRegion(
    [
        GeoPoint(-10.5, 142.2),
        GeoPoint(-11.0, 136.5),
        GeoPoint(-12.0, 131.0),
        GeoPoint(-14.0, 126.8),
        GeoPoint(-19.5, 121.0),
        GeoPoint(-22.0, 113.9),
        GeoPoint(-26.0, 113.2),
        GeoPoint(-35.2, 115.0),
        GeoPoint(-35.0, 118.0),
        GeoPoint(-31.7, 131.2),
        GeoPoint(-35.0, 136.0),
        GeoPoint(-38.5, 140.5),
        GeoPoint(-39.2, 146.5),
        GeoPoint(-37.6, 150.0),
        GeoPoint(-33.0, 151.8),
        GeoPoint(-28.2, 153.8),
        GeoPoint(-24.8, 152.8),
        GeoPoint(-20.0, 148.8),
        GeoPoint(-16.5, 145.8),
        GeoPoint(-12.5, 143.5),
    ],
    label="Australia (mainland, coarse)",
)
