"""GeoPing (Padmanabhan & Subramanian, SIGMETRICS'01).

"GeoPing locates the required host by measuring the delay in time
between required host and several known locations.  It uses a ready
made database of delay measurements from fixed locations into several
target machines."

Implementation: build the delay map -- the vector of landmark->site
RTTs for every *candidate site* with known position (here: the
landmarks themselves plus any extra calibration nodes).  To locate a
target, measure the landmark->target RTT vector and return the
candidate whose delay vector is closest in Euclidean norm (the paper's
"nearest neighbour in delay space").
"""

from __future__ import annotations

import math

from repro.geoloc.base import GeolocationEstimate, GeolocationScheme
from repro.netsim.topology import NetworkTopology
from repro.netsim.traceroute import ping


class GeoPing(GeolocationScheme):
    """Nearest-neighbour-in-delay-space geolocation."""

    name = "geoping"

    def __init__(self, topology: NetworkTopology, landmark_names: list[str]) -> None:
        super().__init__(topology, landmark_names)
        # Candidate sites are the landmarks (classic GeoPing: "the
        # location of the nearest landmark").
        self.candidates = list(landmark_names)
        self._delay_map: dict[str, list[float]] = {}
        for candidate in self.candidates:
            self._delay_map[candidate] = self._probe_vector(candidate)

    def _probe_vector(self, node: str) -> list[float]:
        return [
            ping(self.topology, landmark, node, n_probes=3).rtt_avg_ms
            for landmark in self.landmarks
        ]

    def locate(self, target: str) -> GeolocationEstimate:
        """Match the target's delay vector against the candidate map."""
        target_vector = self._probe_vector(target)
        best_candidate = None
        best_score = math.inf
        for candidate, vector in self._delay_map.items():
            score = math.sqrt(
                sum((a - b) ** 2 for a, b in zip(target_vector, vector))
            )
            if score < best_score:
                best_score = score
                best_candidate = candidate
        position = self.topology.node(best_candidate).position
        return GeolocationEstimate(
            target=target,
            position=position,
            radius_km=0.0,  # GeoPing returns a point, not an area
            scheme=self.name,
        )
