"""Octant-style geolocation (Wong, Stoyanov, Sirer, NSDI'07).

"Octant is designed to identify the potential area where the required
node may be located.  It calculates the network latency between a
landmark and a target and is based on the fact that the speed of light
in fiber is 2/3 the speed of light."

Implementation: every landmark measurement yields a *positive
constraint* (target within R+ = speed+ * rtt/2 of the landmark) and a
*negative constraint* (target outside R- = speed- * rtt/2 for a
conservative floor speed).  The feasible area is the intersection; we
approximate it by grid-scanning candidate points within the tightest
positive ring and return the feasible region's centroid, with the
region's maximum extent as the uncertainty radius.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.geo.coords import GeoPoint, destination_point, haversine_km
from repro.geoloc.base import GeolocationEstimate, GeolocationScheme
from repro.netsim.latency import FIBRE_SPEED_KM_PER_MS
from repro.netsim.topology import NetworkTopology
from repro.netsim.traceroute import ping


class OctantLike(GeolocationScheme):
    """Ring-intersection geolocation with positive/negative constraints."""

    name = "octant"
    #: Envelope speeds: fibre for the positive ring, a conservative
    #: quarter of it for the negative one.
    positive_speed = FIBRE_SPEED_KM_PER_MS
    negative_speed = FIBRE_SPEED_KM_PER_MS / 4.0

    def __init__(
        self,
        topology: NetworkTopology,
        landmark_names: list[str],
        *,
        grid_step_km: float = 50.0,
    ) -> None:
        super().__init__(topology, landmark_names)
        if grid_step_km <= 0:
            raise ConfigurationError(
                f"grid_step_km must be positive, got {grid_step_km}"
            )
        self.grid_step_km = grid_step_km

    def _constraints(self, target: str) -> list[tuple[GeoPoint, float, float]]:
        """Per-landmark (position, r_min_km, r_max_km) rings."""
        rings = []
        for landmark in self.landmarks:
            rtt_ms = ping(self.topology, landmark, target, n_probes=3).rtt_avg_ms
            effective = max(0.0, rtt_ms)
            r_max = self.positive_speed * effective / 2.0
            r_min = self.negative_speed * effective / 2.0 * 0.0
            # Octant's negative information is an inner ring when the
            # RTT is large; a conservative simple form uses floor speed
            # only beyond a latency threshold.
            if effective > 10.0:
                r_min = self.negative_speed * effective / 8.0
            rings.append(
                (self.topology.node(landmark).position, r_min, r_max)
            )
        return rings

    def locate(self, target: str) -> GeolocationEstimate:
        """Grid-scan the tightest ring's disc for feasible points."""
        rings = self._constraints(target)
        anchor_position, _, anchor_radius_km = min(rings, key=lambda ring: ring[2])
        feasible: list[GeoPoint] = []
        n_radial = max(1, int(anchor_radius_km / self.grid_step_km))
        candidates = [anchor_position]
        for i in range(1, n_radial + 1):
            radius_km = i * self.grid_step_km
            n_angular = max(6, int(2 * 3.14159 * radius_km / self.grid_step_km))
            for j in range(n_angular):
                candidates.append(
                    destination_point(
                        anchor_position, 360.0 * j / n_angular, radius_km
                    )
                )
        for candidate in candidates:
            ok = True
            for centre, r_min, r_max in rings:
                distance_km = haversine_km(centre, candidate)
                if distance_km > r_max or distance_km < r_min:
                    ok = False
                    break
            if ok:
                feasible.append(candidate)
        if not feasible:
            # Constraints over-tightened (measurement noise): fall back
            # to the tightest landmark, as Octant does with its "best
            # guess" mode.
            return GeolocationEstimate(
                target=target,
                position=anchor_position,
                radius_km=anchor_radius,
                scheme=self.name,
            )
        centroid_lat = sum(p.latitude for p in feasible) / len(feasible)
        centroid_lon = sum(p.longitude for p in feasible) / len(feasible)
        centroid = GeoPoint(centroid_lat, centroid_lon)
        extent = max(haversine_km(centroid, p) for p in feasible)
        return GeolocationEstimate(
            target=target,
            position=centroid,
            radius_km=extent,
            scheme=self.name,
        )
