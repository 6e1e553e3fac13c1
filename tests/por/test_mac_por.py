"""The MAC-based POR challenge/response protocol."""

import pytest

from repro.errors import BlockNotFoundError, ConfigurationError, VerificationError
from repro.por.file_format import Segment
from repro.por.mac_por import MacPORClient, MacPORServer, PORChallenge
from repro.por.parameters import TEST_PARAMS
from repro.por.setup import setup_file


# Every test here pays a full POR setup in its fixtures: slow lane.
pytestmark = pytest.mark.slow

@pytest.fixture
def por_pair(keys, sample_data):
    encoded = setup_file(sample_data, keys, b"por-test", TEST_PARAMS)
    server = MacPORServer(encoded)
    client = MacPORClient(keys.mac_key, b"por-test", encoded.n_segments, TEST_PARAMS)
    return client, server, encoded


class TestChallenge:
    def test_indices_distinct_and_in_range(self, por_pair, rng):
        client, _, encoded = por_pair
        challenge = client.make_challenge(25, rng)
        assert len(set(challenge.indices)) == 25
        assert all(0 <= i < encoded.n_segments for i in challenge.indices)

    def test_nonce_present(self, por_pair, rng):
        client, _, _ = por_pair
        assert len(client.make_challenge(5, rng).nonce) == 16

    def test_k_bounds(self, por_pair, rng):
        client, _, encoded = por_pair
        with pytest.raises(ConfigurationError):
            client.make_challenge(0, rng)
        with pytest.raises(ConfigurationError):
            client.make_challenge(encoded.n_segments + 1, rng)

    def test_challenges_vary(self, por_pair, rng):
        client, _, _ = por_pair
        a = client.make_challenge(10, rng)
        b = client.make_challenge(10, rng)
        assert a.indices != b.indices or a.nonce != b.nonce

    def test_wire_bytes_cover_indices_and_nonce(self, por_pair, rng):
        client, _, _ = por_pair
        a = client.make_challenge(5, rng)
        b = PORChallenge(indices=a.indices, nonce=bytes(x ^ 1 for x in a.nonce))
        assert a.wire_bytes() != b.wire_bytes()


class TestHonestServer:
    def test_response_verifies(self, por_pair, rng):
        client, server, _ = por_pair
        challenge = client.make_challenge(30, rng)
        report = client.verify_response(challenge, server.respond(challenge))
        assert report.ok
        assert report.checked == 30

    def test_require_valid_passes(self, por_pair, rng):
        client, server, _ = por_pair
        challenge = client.make_challenge(10, rng)
        client.require_valid(challenge, server.respond(challenge))

    def test_missing_segment_raises(self, por_pair, rng):
        client, server, encoded = por_pair
        challenge = PORChallenge(indices=(encoded.n_segments,), nonce=b"n" * 16)
        with pytest.raises(BlockNotFoundError):
            server.respond(challenge)


class TestDishonestServer:
    def test_corrupted_payload_detected(self, por_pair, rng):
        client, server, encoded = por_pair
        victim = 5
        old = encoded.segments[victim]
        encoded.segments[victim] = Segment(
            index=victim, payload=b"\x00" * len(old.payload), tag=old.tag
        )
        challenge = PORChallenge(indices=(victim,), nonce=b"n" * 16)
        report = client.verify_response(challenge, server.respond(challenge))
        assert not report.ok
        assert report.bad_indices == [victim]

    def test_substituted_segment_detected(self, por_pair, rng):
        # Serving segment 7's data for index 5 must fail (index bound).
        client, server, encoded = por_pair
        donor = encoded.segments[7]
        forged = Segment(index=5, payload=donor.payload, tag=donor.tag)
        encoded.segments[5] = forged
        challenge = PORChallenge(indices=(5,), nonce=b"n" * 16)
        report = client.verify_response(challenge, server.respond(challenge))
        assert not report.ok

    def test_wrong_index_label_detected(self, por_pair):
        client, _, encoded = por_pair
        segment = encoded.segments[4]
        relabelled = Segment(index=9, payload=segment.payload, tag=segment.tag)
        assert not client.verify_segment(4, relabelled)

    def test_missing_answer_detected(self, por_pair, rng):
        from repro.por.mac_por import PORResponse

        client, server, _ = por_pair
        challenge = client.make_challenge(5, rng)
        response = server.respond(challenge)
        truncated = PORResponse(segments=response.segments[:-1])
        report = client.verify_response(challenge, truncated)
        assert not report.ok
        assert len(report.missing_indices) == 1

    def test_require_valid_raises(self, por_pair, rng):
        client, server, encoded = por_pair
        old = encoded.segments[0]
        encoded.segments[0] = Segment(0, b"\x00" * len(old.payload), old.tag)
        challenge = PORChallenge(indices=(0,), nonce=b"n" * 16)
        with pytest.raises(VerificationError):
            client.require_valid(challenge, server.respond(challenge))


class TestClientValidation:
    def test_rejects_zero_segments(self, keys):
        with pytest.raises(ConfigurationError):
            MacPORClient(keys.mac_key, b"f", 0, TEST_PARAMS)
