"""Landmark triangulation of the verifier device (GPS-spoof defence)."""

import pytest

from repro.core.triangulation import (
    LandmarkTriangulator,
    spoof_detection_radius_km,
)
from repro.errors import ConfigurationError
from repro.geo.coords import GeoPoint, destination_point
from repro.geo.datasets import city


@pytest.fixture
def triangulator():
    return LandmarkTriangulator(
        {
            "sydney": city("sydney"),
            "melbourne": city("melbourne"),
            "perth": city("perth"),
        }
    )


class TestConstruction:
    def test_needs_two_landmarks(self):
        with pytest.raises(ConfigurationError):
            LandmarkTriangulator({"only": city("sydney")})


class TestBoundArithmetic:
    def test_rtt_converts_at_internet_speed(self, triangulator):
        # overhead default = 16 ms floor; 19 ms RTT -> 3 ms flight ->
        # 4/9 c * 3 / 2 = 200 km.
        assert triangulator.rtt_to_bound_km(19.0) == pytest.approx(200.0)

    def test_sub_overhead_rtt_gives_zero(self, triangulator):
        assert triangulator.rtt_to_bound_km(10.0) == 0.0

    def test_negative_rtt_rejected(self, triangulator):
        with pytest.raises(ConfigurationError):
            triangulator.rtt_to_bound_km(-1.0)


class TestHonestDevice:
    def test_true_position_always_consistent(self, triangulator):
        brisbane = city("brisbane")
        result = triangulator.verify_device(brisbane, brisbane)
        assert result.consistent
        assert result.violated_landmarks == ()
        assert len(result.observations) == 3

    def test_bounds_cover_true_distances(self, triangulator):
        brisbane = city("brisbane")
        from repro.geo.coords import haversine_km

        for observation in triangulator.measure(brisbane):
            true_distance = haversine_km(observation.landmark, brisbane)
            assert observation.distance_bound_km >= true_distance * 0.95


class TestSpoofing:
    def test_gross_spoof_caught(self, triangulator):
        result = triangulator.verify_device(
            claimed_position=city("singapore"),
            true_position=city("brisbane"),
        )
        assert not result.consistent
        assert len(result.violated_landmarks) >= 1
        assert result.max_excess_km > 1000.0

    def test_small_spoof_escapes(self, triangulator):
        # A 50 km displacement sits inside every bound's slack --
        # triangulation at Internet precision is coarse.
        brisbane = city("brisbane")
        nearby_fake = destination_point(brisbane, 45.0, 50.0)
        result = triangulator.verify_device(nearby_fake, brisbane)
        assert result.consistent

    def test_detection_radius_finite_and_sane(self, triangulator):
        radius = spoof_detection_radius_km(triangulator, city("brisbane"))
        assert 100.0 < radius < 3000.0

    def test_added_delay_only_loosens(self, triangulator):
        """The paper's caveat: the provider can delay landmark paths.

        Added delay inflates every bound, so a spoof that was caught
        can escape -- triangulation gives one-sided assurance only.
        """
        honest = triangulator.verify_device(
            city("singapore"), city("brisbane")
        )
        delayed = triangulator.verify_device(
            city("singapore"),
            city("brisbane"),
            adversary_added_delay_ms=100.0,
        )
        assert not honest.consistent
        assert delayed.consistent  # the attack the paper warns about

    def test_delay_cannot_fake_closer(self, triangulator):
        """The converse is impossible: bounds never shrink, so a device
        truly far away can never claim a position the physics excludes
        ... unless the claim is WITHIN the honest bounds anyway."""
        # Device truly in Singapore claims Brisbane: Sydney's bound is
        # ~6,300 km (true distance), Brisbane is ~730 km from Sydney --
        # inside the bound, so this direction is NOT caught by upper
        # bounds alone.  What IS impossible is producing a bound
        # *smaller* than the true distance:
        observations = triangulator.measure(
            city("singapore"), adversary_added_delay_ms=0.0
        )
        from repro.geo.coords import haversine_km

        for observation in observations:
            true_distance = haversine_km(
                observation.landmark, city("singapore")
            )
            assert observation.distance_bound_km >= true_distance * 0.9

    def test_adversary_cannot_remove_delay(self, triangulator):
        with pytest.raises(ConfigurationError):
            triangulator.measure(
                city("brisbane"), adversary_added_delay_ms=-5.0
            )


class TestCheckClaim:
    def test_empty_observations_rejected(self, triangulator):
        with pytest.raises(ConfigurationError):
            triangulator.check_claim(city("brisbane"), [])
