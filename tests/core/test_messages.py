"""Protocol message validation and canonical payloads."""

import dataclasses
import hashlib

import pytest

from repro.core.messages import (
    TRANSCRIPT_MAGIC,
    AuditRequest,
    BatchProof,
    SignedTranscript,
    TimedRound,
    transcript_payload,
)
from repro.errors import ConfigurationError
from repro.geo.coords import GeoPoint
from repro.por.file_format import Segment
from repro.util.serialization import (
    encode_float,
    encode_length_prefixed,
    encode_uint,
)
from tests.conftest import build_session, sealed_transcripts


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


def payload_by_hand(device_id, file_id, nonce, rounds, latitude, longitude):
    """The signed payload's layout, spelled out field by field.

    ``rounds`` holds ``(index, segment index, payload, tag, rtt_ms)``.
    """
    out = b"geoproof-transcript-v2"
    out += encode_length_prefixed(device_id)
    out += encode_length_prefixed(file_id)
    out += encode_length_prefixed(nonce)
    out += encode_uint(len(rounds))
    for index, segment_index, payload, tag, rtt_ms in rounds:
        out += encode_uint(index)
        out += encode_uint(segment_index)
        out += encode_length_prefixed(payload) + encode_length_prefixed(tag)
        out += encode_float(rtt_ms)
    return out + encode_float(latitude) + encode_float(longitude)


class TestPayloadLayout:
    """The bytes a device attests, pinned without a decoder."""

    def test_two_round_payload_known_answer(self):
        rounds = (
            TimedRound(3, Segment(3, b"seg-three", b"t3"), 1.25),
            TimedRound(7, Segment(7, b"seg-seven", b"tag7"), 0.5),
        )
        payload = transcript_payload(
            b"dev-1", b"file-a", b"nonce-16-bytes!!", rounds,
            GeoPoint(-27.5, 153.25),
        )
        assert payload == payload_by_hand(
            b"dev-1", b"file-a", b"nonce-16-bytes!!",
            [(3, 3, b"seg-three", b"t3", 1.25), (7, 7, b"seg-seven", b"tag7", 0.5)],
            -27.5, 153.25,
        )
        assert payload.startswith(TRANSCRIPT_MAGIC)
        assert len(payload) == 173
        assert hashlib.sha256(payload).hexdigest() == (
            "6371b1fc457f9f75ee81b2632d8aff581a2c15dde8b642d712a499512754e4bf"
        )

    def test_device_seeds_the_payload_it_signed(self):
        session, file_id, _ = build_session("payload-layout", file_bytes=2_000)
        requests = [session.tpa.make_request(file_id, 3) for _ in range(3)]
        runs = session.verifier.run_audits(requests, session.provider)
        for transcript in sealed_transcripts(session.verifier, runs):
            seeded = transcript.__dict__["_signed_payload"]
            assert transcript.signed_payload() is seeded
            assert seeded == transcript_payload(
                transcript.device_id,
                transcript.file_id,
                transcript.nonce,
                transcript.rounds,
                transcript.position,
            )
            assert seeded == payload_by_hand(
                transcript.device_id,
                transcript.file_id,
                transcript.nonce,
                [
                    (r.index, r.segment.index, r.segment.payload,
                     r.segment.tag, r.rtt_ms)
                    for r in transcript.rounds
                ],
                transcript.position.latitude,
                transcript.position.longitude,
            )
