"""Latency model tests, including the Table II/III calibrations."""

import pytest

from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError
from repro.geo.datasets import AUSTRALIA_HOSTS, BRISBANE_ADSL_HOST
from repro.geo.coords import haversine_km
from repro.netsim.latency import (
    FIBRE_SPEED_KM_PER_MS,
    INTERNET_SPEED_KM_PER_MS,
    InternetModel,
    LANModel,
    RFChannelModel,
    SPEED_OF_LIGHT_KM_PER_MS,
    internet_distance_bound_km,
    timing_error_to_distance_km,
)
from repro.por.parameters import TEST_PARAMS

#: One served segment plus its tag: the size of a response leg.
SEGMENT_BYTES = TEST_PARAMS.segment_bytes + TEST_PARAMS.tag_bytes


class TestConstants:
    def test_paper_arithmetic(self):
        assert SPEED_OF_LIGHT_KM_PER_MS == 300.0
        assert FIBRE_SPEED_KM_PER_MS == pytest.approx(200.0)
        assert INTERNET_SPEED_KM_PER_MS == pytest.approx(400.0 / 3.0)

    def test_1ms_error_is_150km(self):
        """The paper: a 1 ms timing error = 150 km distance error."""
        assert timing_error_to_distance_km(1.0) == pytest.approx(150.0)

    def test_3ms_internet_rtt_is_200km(self):
        """The paper: in 3 ms a packet travels 400 km -> 200 km bound."""
        assert internet_distance_bound_km(3.0) == pytest.approx(200.0)


class TestLANModel:
    def test_propagation_term(self):
        # 200 km of fibre one-way = 1 ms, the paper's LAN envelope.
        lan = LANModel(switch_delay_ms=0.0, n_switches=0)
        assert lan.one_way_ms(200.0) == pytest.approx(1.0)

    def test_table2_envelope(self):
        """Every Table II placement must come in under 1 ms RTT."""
        lan = LANModel()
        for distance in (0.0, 0.01, 0.02, 0.5, 3.2, 45.0):
            assert lan.rtt_ms(distance, 64) < 1.0, distance

    def test_serialisation_term(self):
        lan = LANModel(n_switches=0, bandwidth_mbps=1000.0)
        # 1250 bytes at 1 Gb/s = 10 microseconds.
        delta = lan.one_way_ms(0.0, 1250) - lan.one_way_ms(0.0, 0)
        assert delta == pytest.approx(0.01)

    def test_jitter_only_with_rng(self):
        lan = LANModel()
        assert lan.one_way_ms(1.0) == lan.one_way_ms(1.0)
        rng = DeterministicRNG("jitter")
        jittered = lan.one_way_ms(1.0, 0, rng)
        assert jittered >= lan.one_way_ms(1.0)

    def test_rejects_negative_distance(self):
        with pytest.raises(ConfigurationError):
            LANModel().one_way_ms(-1.0)


class TestLANSplit:
    """The two pieces the verifier's batch body times each leg with."""

    @pytest.mark.parametrize("payload", [0, 16, SEGMENT_BYTES])
    def test_fixed_is_the_leg_without_jitter(self, payload):
        lan = LANModel()
        for distance in (0.0, 0.05, 45.0):
            assert lan.fixed_ms(distance, payload) == lan.one_way_ms(
                distance, payload
            )
        with pytest.raises(ConfigurationError):
            lan.fixed_ms(-1.0, payload)

    @pytest.mark.parametrize("pre_read", [0, 5])
    def test_jitter_draws_equal_successive_expovariate(self, pre_read):
        """One bulk read equals n draws, and leaves the stream where
        they leave it (a pre-read moves the draws off block edges).
        n = 38 is the legs of a k=19 audit: a nine-block read."""
        lan = LANModel()
        for n in (9, 38):
            bulk, twin = DeterministicRNG("split"), DeterministicRNG("split")
            bulk.random_bytes(pre_read)
            twin.random_bytes(pre_read)
            draws = lan.jitter_draws(bulk, n)
            assert draws == [
                twin.expovariate(1.0 / lan.jitter_ms) for _ in range(n)
            ]
            assert bulk.random_bytes(32) == twin.random_bytes(32)

    def test_fixed_plus_draw_is_one_way(self):
        lan = LANModel()
        bulk, twin = DeterministicRNG("legs"), DeterministicRNG("legs")
        fixed = lan.fixed_ms(0.05, SEGMENT_BYTES)
        assert [fixed + draw for draw in lan.jitter_draws(bulk, 4)] == [
            lan.one_way_ms(0.05, SEGMENT_BYTES, twin) for _ in range(4)
        ]

    def test_zero_jitter_draws_nothing(self):
        lan = LANModel(jitter_ms=0.0)
        rng, twin = DeterministicRNG("still"), DeterministicRNG("still")
        assert lan.jitter_draws(rng, 5) == [0.0] * 5
        assert rng.random_bytes(32) == twin.random_bytes(32)


class TestInternetModel:
    def test_base_floor(self):
        # Even at zero distance the RTT shows the access-network floor.
        model = InternetModel()
        assert model.rtt_ms(0.0) >= model.base_rtt_ms

    def test_monotone_in_distance(self):
        model = InternetModel()
        rtts = [model.rtt_ms(d) for d in (10, 100, 1000, 4000)]
        assert rtts == sorted(rtts)

    def test_table3_calibration(self):
        """Modelled RTTs must track Table III within 25 % per host."""
        model = InternetModel()
        for host in AUSTRALIA_HOSTS:
            distance = max(
                haversine_km(BRISBANE_ADSL_HOST, host.location),
                host.paper_distance_km,
            )
            rtt = model.rtt_ms(distance)
            assert abs(rtt - host.paper_latency_ms) / host.paper_latency_ms < 0.25, (
                host.url,
                rtt,
            )

    def test_hop_count_grows(self):
        model = InternetModel()
        assert model.hop_count(4000) > model.hop_count(100)

    def test_jitter_adds_delay(self):
        model = InternetModel()
        rng = DeterministicRNG("net-jitter")
        base = model.rtt_ms(1000.0)
        samples = [model.rtt_ms(1000.0, rng=rng) for _ in range(20)]
        assert all(s >= base for s in samples)
        assert len(set(samples)) > 1


class TestRFChannel:
    def test_light_speed_flight(self):
        rf = RFChannelModel()
        assert rf.one_way_ms(300.0) == pytest.approx(1.0)

    def test_processing_delay_added(self):
        rf = RFChannelModel(processing_delay_ms=0.5)
        assert rf.one_way_ms(0.0) == pytest.approx(0.5)

    def test_rtt_double(self):
        rf = RFChannelModel()
        assert rf.rtt_ms(150.0) == pytest.approx(1.0)
