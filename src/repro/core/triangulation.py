"""Landmark triangulation of the verifier device (Section V-C).

"The GPS signal may be manipulated by the provider ... Thus, for extra
assurance we may want to verify the position of V ... For better
accuracy, we could consider the triangulation of V from multiple
landmarks.  This may include some challenges as the verifier is located
in the same network that is controlled by the prover, thus the attacker
may introduce delays to the communication paths."

This module implements that countermeasure.  Trusted landmark auditors
at known positions ping the verifier device over the Internet; each RTT
yields an *upper bound* on the verifier's distance from that landmark
(delay can be added by the adversary, never removed, so the bound is
one-sided -- exactly the asymmetry the paper notes).  The feasible
region is the intersection of discs; the GPS fix must lie inside it.

A spoofed GPS fix claiming a position far from the true one is caught
whenever some landmark's disc excludes the claimed position:
the adversary can *inflate* every disc (adding delay) but can never
shrink one below the true distance, so it can fake "farther", never
"closer".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.geo.coords import GeoPoint, haversine_km
from repro.netsim.latency import InternetModel, INTERNET_SPEED_KM_PER_MS


@dataclass(frozen=True)
class LandmarkObservation:
    """One landmark's measurement of the verifier."""

    landmark: GeoPoint
    rtt_ms: float
    distance_bound_km: float


@dataclass(frozen=True)
class TriangulationResult:
    """Outcome of cross-checking a claimed position against landmarks.

    ``consistent`` is True iff the claimed position lies inside every
    landmark's distance bound.  ``violated_landmarks`` lists the
    landmarks whose bound excludes the claim (evidence of spoofing).
    """

    claimed_position: GeoPoint
    observations: tuple[LandmarkObservation, ...]
    consistent: bool
    violated_landmarks: tuple[str, ...]
    max_excess_km: float


class LandmarkTriangulator:
    """Trusted landmarks that bound the verifier's position by RTT.

    Parameters
    ----------
    landmarks:
        Known positions of the trusted auditor hosts.

    Landmark -> verifier paths follow the calibrated Internet model.
    ``overhead_ms`` is the RTT spent on non-propagation costs (access
    links, stacks), subtracted before converting to distance: the
    model's distance-independent floor.  *Under*-estimating it only
    loosens bounds (safe); over-estimating could produce false
    spoofing alarms.
    """

    def __init__(self, landmarks: dict[str, GeoPoint]) -> None:
        if len(landmarks) < 2:
            raise ConfigurationError(
                f"triangulation needs >= 2 landmarks, got {len(landmarks)}"
            )
        self.landmarks = dict(landmarks)
        self.internet = InternetModel()
        self.overhead_ms = self.internet.base_rtt_ms

    def rtt_to_bound_km(self, rtt_ms: float) -> float:
        """Convert an observed RTT into a one-sided distance bound."""
        if rtt_ms < 0:
            raise ConfigurationError(f"rtt must be >= 0, got {rtt_ms}")
        effective = max(0.0, rtt_ms - self.overhead_ms)
        return INTERNET_SPEED_KM_PER_MS * effective / 2.0

    def measure(
        self,
        true_position: GeoPoint,
        *,
        adversary_added_delay_ms: float = 0.0,
    ) -> list[LandmarkObservation]:
        """Ping the device from every landmark.

        ``adversary_added_delay_ms`` models the provider delaying the
        landmark paths (it controls the network around V); delay only
        ever *adds*, which inflates bounds and cannot create a false
        'too close' signal.
        """
        if adversary_added_delay_ms < 0:
            raise ConfigurationError("adversary cannot remove delay")
        observations = []
        for name, landmark in self.landmarks.items():
            distance_km = haversine_km(landmark, true_position)
            rtt_ms = self.internet.rtt_ms(distance_km) + adversary_added_delay_ms
            observations.append(
                LandmarkObservation(
                    landmark=landmark,
                    rtt_ms=rtt_ms,
                    distance_bound_km=self.rtt_to_bound_km(rtt_ms),
                )
            )
        return observations

    def check_claim(
        self,
        claimed_position: GeoPoint,
        observations: list[LandmarkObservation],
    ) -> TriangulationResult:
        """Does the claimed (GPS) position fit every distance bound?"""
        if not observations:
            raise ConfigurationError("no observations to check against")
        violated = []
        max_excess = 0.0
        for name, observation in zip(self.landmarks, observations):
            claimed_distance_km = haversine_km(observation.landmark, claimed_position)
            excess = claimed_distance_km - observation.distance_bound_km
            if excess > 0:
                violated.append(name)
                max_excess = max(max_excess, excess)
        return TriangulationResult(
            claimed_position=claimed_position,
            observations=tuple(observations),
            consistent=not violated,
            violated_landmarks=tuple(violated),
            max_excess_km=max_excess,
        )

    def verify_device(
        self,
        claimed_position: GeoPoint,
        true_position: GeoPoint,
        *,
        adversary_added_delay_ms: float = 0.0,
    ) -> TriangulationResult:
        """Measure and check in one step (the TPA's workflow)."""
        observations = self.measure(
            true_position, adversary_added_delay_ms=adversary_added_delay_ms
        )
        return self.check_claim(claimed_position, observations)


def spoof_detection_radius_km(
    triangulator: LandmarkTriangulator,
    true_position: GeoPoint,
) -> float:
    """Smallest spoof displacement (due east) that gets caught.

    Sweeps fake positions in 50 km steps out to 20 000 km from the
    true one and returns the first displacement the landmark bounds
    reject -- the effective spoofing headroom the adversary retains
    despite triangulation (bounded by the landmarks' geometric spread
    and the overhead slack).
    """
    from repro.geo.coords import destination_point

    observations = triangulator.measure(true_position)
    displacement = 50.0
    while displacement <= 20_000.0:
        fake = destination_point(true_position, 90.0, displacement)
        if not triangulator.check_claim(fake, observations).consistent:
            return displacement
        displacement += 50.0
    return float("inf")
