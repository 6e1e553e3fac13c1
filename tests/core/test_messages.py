"""Protocol message validation and canonical payloads."""

import dataclasses

import pytest

from repro.core.messages import (
    AuditRequest,
    BatchProof,
    SignedTranscript,
    TimedRound,
)
from repro.errors import ConfigurationError
from repro.geo.coords import GeoPoint
from repro.por.file_format import Segment


def make_transcript(n_rounds=3):
    rounds = tuple(
        TimedRound(
            index=i,
            segment=Segment(index=i, payload=bytes([i]) * 8, tag=b"tag"),
            rtt_ms=10.0 + i,
        )
        for i in range(n_rounds)
    )
    return SignedTranscript(
        device_id=b"device",
        file_id=b"file",
        nonce=b"nonce-16-bytes!!",
        rounds=rounds,
        position=GeoPoint(-27.47, 153.03),
        proof=BatchProof(root=b"r" * 32, n_leaves=1, leaf_index=0, path=()),
        signature=(1, 2),
    )


class TestAuditRequest:
    def test_valid(self):
        AuditRequest(b"f", 100, 10, b"nonce-16-bytes!!")

    def test_k_bounds(self):
        with pytest.raises(ConfigurationError):
            AuditRequest(b"f", 100, 0, b"nonce-16-bytes!!")
        with pytest.raises(ConfigurationError):
            AuditRequest(b"f", 100, 101, b"nonce-16-bytes!!")

    def test_nonce_length(self):
        with pytest.raises(ConfigurationError):
            AuditRequest(b"f", 100, 10, b"short")

    def test_zero_segments(self):
        with pytest.raises(ConfigurationError):
            AuditRequest(b"f", 0, 1, b"nonce-16-bytes!!")


class TestSignedTranscript:
    def test_round_statistics(self):
        transcript = make_transcript(3)
        assert transcript.k == 3
        assert transcript.max_rtt_ms == 12.0
        assert transcript.mean_rtt_ms == pytest.approx(11.0)
        assert transcript.challenge_indices() == [0, 1, 2]

    def test_empty_transcript_stats_raise(self):
        transcript = make_transcript(0)
        with pytest.raises(ConfigurationError):
            transcript.max_rtt_ms
        with pytest.raises(ConfigurationError):
            transcript.mean_rtt_ms

    def test_payload_binds_every_field(self):
        base = make_transcript()
        payload = base.signed_payload()
        variants = [
            dataclasses.replace(base, device_id=b"other"),
            dataclasses.replace(base, file_id=b"other"),
            dataclasses.replace(base, nonce=b"other-nonce-16b!"),
            dataclasses.replace(base, rounds=base.rounds[:-1]),
            dataclasses.replace(base, position=GeoPoint(1.0, 2.0)),
        ]
        for variant in variants:
            assert variant.signed_payload() != payload

    def test_payload_binds_timings(self):
        base = make_transcript()
        slow = dataclasses.replace(
            base,
            rounds=base.rounds[:-1]
            + (dataclasses.replace(base.rounds[-1], rtt_ms=99.0),),
        )
        assert slow.signed_payload() != base.signed_payload()

    def test_payload_binds_segment_content(self):
        base = make_transcript()
        forged_segment = Segment(index=0, payload=b"forged!!", tag=b"tag")
        forged = dataclasses.replace(
            base,
            rounds=(dataclasses.replace(base.rounds[0], segment=forged_segment),)
            + base.rounds[1:],
        )
        assert forged.signed_payload() != base.signed_payload()

    def test_payload_excludes_signature(self):
        # The payload is the transcript's leaf in its batch tree: the
        # proof and the root signature are not part of it.
        base = make_transcript()
        resigned = dataclasses.replace(
            base,
            proof=BatchProof(b"s" * 32, 2, 1, ((b"t" * 32, False),)),
            signature=(9, 9),
        )
        assert resigned.signed_payload() == base.signed_payload()
