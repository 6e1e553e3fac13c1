"""Topology-Based Geolocation (Katz-Bassett et al., IMC'06).

"TBG considers the network topology and the time delay information in
order to estimate the host's geographic location.  In this scheme, the
landmarks issue traceroute probes to each other and the target."

Implementation: landmarks traceroute the target; the *last hop before
the target* is an intermediate router whose position TBG estimates
from landmark-to-landmark traceroutes (here: routers on
landmark-landmark paths inherit interpolated positions).  The target's
position is then constrained within ``speed * last_link_rtt/2`` of the
last-hop router; we combine the per-landmark constraints with a
weighted centroid (weights = inverse constraint radius), which mirrors
TBG's least-squares spirit without the full optimisation machinery.
"""

from __future__ import annotations

from repro.geo.coords import GeoPoint, haversine_km
from repro.geoloc.base import GeolocationEstimate, GeolocationScheme
from repro.netsim.latency import FIBRE_SPEED_KM_PER_MS
from repro.netsim.topology import NetworkTopology
from repro.netsim.traceroute import traceroute


class TopologyBasedGeolocation(GeolocationScheme):
    """Constrain the target via its last-hop routers."""

    name = "tbg"

    def __init__(self, topology: NetworkTopology, landmark_names: list[str]) -> None:
        super().__init__(topology, landmark_names)
        self.speed = FIBRE_SPEED_KM_PER_MS
        # "Landmarks issue traceroute probes to each other": learn which
        # routers appear on landmark-landmark paths; each router's
        # position is interpolated along the path, and the sighting
        # from the *shortest* landmark pair wins -- a router between
        # two nearby landmarks is pinned far more tightly than one on
        # a cross-continent path.
        self._router_estimates: dict[str, GeoPoint] = {}
        self._estimate_quality_km: dict[str, float] = {}
        for i, a in enumerate(self.landmarks):
            for b in self.landmarks[i + 1 :]:
                self._learn_path(a, b)

    def _learn_path(self, a: str, b: str) -> None:
        path = self.topology.shortest_path(a, b)
        position_a = self.topology.node(a).position
        position_b = self.topology.node(b).position
        endpoint_separation = haversine_km(position_a, position_b)
        for hop_index, router in enumerate(path[1:-1], start=1):
            if self._estimate_quality_km.get(router, float("inf")) <= endpoint_separation:
                continue  # an earlier, tighter sighting wins
            fraction = hop_index / (len(path) - 1)
            self._router_estimates[router] = GeoPoint(
                position_a.latitude
                + fraction * (position_b.latitude - position_a.latitude),
                position_a.longitude
                + fraction * (position_b.longitude - position_a.longitude),
            )
            self._estimate_quality_km[router] = endpoint_separation

    def locate(self, target: str) -> GeolocationEstimate:
        """Weighted centroid of last-hop constraints."""
        anchors: list[tuple[GeoPoint, float]] = []  # (position, radius)
        for landmark in self.landmarks:
            hops = traceroute(self.topology, landmark, target)
            if len(hops) >= 2:
                last_router = hops[-2].node
                last_link_rtt_ms = hops[-1].rtt_ms - hops[-2].rtt_ms
                anchor = self._router_estimates.get(
                    last_router, self.topology.node(landmark).position
                )
            else:
                # Direct link landmark -> target.
                last_link_rtt_ms = hops[-1].rtt_ms
                anchor = self.topology.node(landmark).position
            radius_km = max(1.0, self.speed * max(0.0, last_link_rtt_ms) / 2.0)
            anchors.append((anchor, radius_km))
        total_weight = sum(1.0 / radius for _, radius in anchors)
        latitude = (
            sum(p.latitude / radius for p, radius in anchors) / total_weight
        )
        longitude = (
            sum(p.longitude / radius for p, radius in anchors) / total_weight
        )
        position = GeoPoint(latitude, longitude)
        uncertainty = min(radius for _, radius in anchors)
        return GeolocationEstimate(
            target=target,
            position=position,
            radius_km=uncertainty,
            scheme=self.name,
        )
