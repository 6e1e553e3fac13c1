"""Property tests: wire decoding of every protocol message fails closed.

The service plane feeds frame bodies straight into
``core.messages``/``core.verification`` codecs, so the codecs are the
daemon's input-validation boundary.  Three properties are pinned for
every message type:

* **round-trip** -- ``from_wire(to_wire(m))`` reproduces ``m`` exactly
  and consumes every byte;
* **truncation** -- every strict prefix of a valid encoding raises
  :class:`~repro.errors.ProtocolError`;
* **concatenation/garbage** -- trailing bytes are rejected, and
  arbitrary byte soup either raises ``ProtocolError`` or decodes to a
  message whose canonical re-encoding is exactly the input (no message
  is ever accepted from a non-canonical encoding).

None of these may hang (decoding is bounded by the input length) or
escape as anything other than ``ProtocolError``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import (
    AuditRequest,
    BatchProof,
    SignedTranscript,
    TimedRound,
    decode_exact,
)
from repro.core.verification import GeoProofVerdict
from repro.errors import ProtocolError
from repro.geo.coords import GeoPoint
from repro.por.file_format import Segment
from repro.util.serialization import (
    encode_float,
    encode_length_prefixed,
    encode_uint,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)

segments = st.builds(
    Segment,
    index=st.integers(0, 2**64 - 1),
    payload=st.binary(max_size=48),
    tag=st.binary(max_size=16),
)

rounds = st.builds(
    TimedRound,
    index=st.integers(0, 2**64 - 1),
    segment=segments,
    rtt_ms=finite_floats,
)

requests = st.integers(1, 2**32).flatmap(
    lambda n: st.builds(
        AuditRequest,
        file_id=st.binary(min_size=1, max_size=32),
        n_segments=st.just(n),
        k=st.integers(1, n),
        nonce=st.binary(min_size=8, max_size=24),
    )
)

positions = st.builds(
    GeoPoint,
    latitude=st.floats(-90.0, 90.0, allow_nan=False, width=64),
    longitude=st.floats(-180.0, 180.0, allow_nan=False, width=64),
)

digests = st.binary(min_size=32, max_size=32)


@st.composite
def batch_proofs(draw):
    """Any proof shape a tree of ``n_leaves`` could issue."""
    n_leaves = draw(st.integers(1, 2**64 - 1))
    depth = (n_leaves - 1).bit_length()
    path = draw(
        st.lists(st.tuples(digests, st.booleans()), max_size=min(depth, 4))
    )
    return BatchProof(
        root=draw(digests),
        n_leaves=n_leaves,
        leaf_index=draw(st.integers(0, n_leaves - 1)),
        path=tuple(path),
    )


transcripts = st.builds(
    SignedTranscript,
    device_id=st.binary(max_size=16),
    file_id=st.binary(max_size=16),
    nonce=st.binary(max_size=24),
    rounds=st.tuples() | st.lists(rounds, max_size=4).map(tuple),
    position=positions,
    proof=batch_proofs(),
    signature=st.tuples(
        st.integers(0, 2**256), st.integers(0, 2**256)
    ),
)

verdict_flags = st.tuples(*[st.booleans()] * 5)


@st.composite
def verdicts(draw):
    signature_ok, position_ok, macs_ok, timing_ok, challenge_ok = draw(
        verdict_flags
    )
    bad_macs = (
        ()
        if macs_ok
        else tuple(
            draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4))
        )
    )
    return GeoProofVerdict(
        accepted=signature_ok
        and position_ok
        and macs_ok
        and timing_ok
        and challenge_ok,
        signature_ok=signature_ok,
        position_ok=position_ok,
        macs_ok=macs_ok,
        timing_ok=timing_ok,
        challenge_ok=challenge_ok,
        max_rtt_ms=draw(finite_floats),
        rtt_max_ms=draw(finite_floats),
        bad_mac_indices=bad_macs,
    )


CODECS = {
    "segment": (segments, Segment.from_wire, lambda s: s.wire_bytes()),
    "round": (rounds, TimedRound.from_wire, lambda r: r.to_wire()),
    "request": (requests, AuditRequest.from_wire, lambda r: r.to_wire()),
    "transcript": (
        transcripts,
        SignedTranscript.from_wire,
        lambda t: t.to_wire(),
    ),
    "verdict": (verdicts(), GeoProofVerdict.from_wire, lambda v: v.to_wire()),
}


def _case(name):
    strategy, decoder, encoder = CODECS[name]
    return pytest.param(strategy, decoder, encoder, id=name)


ALL_CODECS = [_case(name) for name in CODECS]


class TestRoundTrip:
    @pytest.mark.parametrize("strategy, decoder, encoder", ALL_CODECS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_roundtrip_consumes_everything(
        self, strategy, decoder, encoder, data
    ):
        message = data.draw(strategy)
        wire = encoder(message)
        decoded = decode_exact(decoder, wire)
        assert decoded == message
        assert encoder(decoded) == wire

    @given(transcripts)
    @settings(max_examples=30, deadline=None)
    def test_transcript_payload_cache_matches_wire(self, transcript):
        decoded = decode_exact(SignedTranscript.from_wire, transcript.to_wire())
        assert decoded.signed_payload() == transcript.signed_payload()


class TestTruncation:
    @pytest.mark.parametrize("strategy, decoder, encoder", ALL_CODECS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_prefix_fails_closed(self, strategy, decoder, encoder, data):
        message = data.draw(strategy)
        wire = encoder(message)
        cut = data.draw(st.integers(0, len(wire) - 1))
        with pytest.raises(ProtocolError):
            decode_exact(decoder, wire[:cut])


class TestConcatenationAndGarbage:
    @pytest.mark.parametrize("strategy, decoder, encoder", ALL_CODECS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_trailing_bytes_fail_closed(self, strategy, decoder, encoder, data):
        message = data.draw(strategy)
        wire = encoder(message) + data.draw(st.binary(min_size=1, max_size=16))
        with pytest.raises(ProtocolError):
            decode_exact(decoder, wire)

    @pytest.mark.parametrize("strategy, decoder, encoder", ALL_CODECS)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_garbage_never_accepted_non_canonically(
        self, strategy, decoder, encoder, data
    ):
        soup = data.draw(st.binary(max_size=64))
        try:
            decoded = decode_exact(decoder, soup)
        except ProtocolError:
            return
        # The only byte strings a codec may accept are canonical
        # encodings of real messages.
        assert encoder(decoded) == soup

    @given(st.binary(max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_transcript_garbage_always_rejected(self, soup):
        # Transcripts lead with a fixed magic, so byte soup (which will
        # not start with it) must always be rejected outright.
        with pytest.raises(ProtocolError):
            decode_exact(SignedTranscript.from_wire, soup)


class TestFailClosedShapes:
    def test_request_invalid_k_fails_closed(self):
        wire = (
            encode_length_prefixed(b"file")
            + encode_uint(4)  # n_segments
            + encode_uint(9)  # k > n_segments
            + encode_length_prefixed(b"n" * 16)
        )
        with pytest.raises(ProtocolError):
            decode_exact(AuditRequest.from_wire, wire)

    def test_request_short_nonce_fails_closed(self):
        wire = (
            encode_length_prefixed(b"file")
            + encode_uint(4)
            + encode_uint(2)
            + encode_length_prefixed(b"abc")
        )
        with pytest.raises(ProtocolError):
            decode_exact(AuditRequest.from_wire, wire)

    def test_round_nan_rtt_fails_closed(self):
        segment = Segment(index=0, payload=b"p", tag=b"t")
        wire = (
            encode_uint(0)
            + segment.wire_bytes()
            + encode_float(float("nan"))
        )
        with pytest.raises(ProtocolError):
            decode_exact(TimedRound.from_wire, wire)

    def test_transcript_out_of_range_position_fails_closed(self):
        transcript = _transcript()
        wire = transcript.to_wire()
        bad_lat = encode_float(91.0)
        good_lat = encode_float(transcript.position.latitude)
        assert wire.count(good_lat) == 1
        with pytest.raises(ProtocolError):
            decode_exact(
                SignedTranscript.from_wire,
                wire.replace(good_lat, bad_lat),
            )

    def test_transcript_padded_signature_int_fails_closed(self):
        transcript = _transcript()
        payload = transcript.signed_payload() + transcript.proof.wire_bytes()
        e, s = transcript.signature
        padded = (
            payload
            + encode_length_prefixed(
                b"\x00" + e.to_bytes((e.bit_length() + 7) // 8 or 1, "big")
            )
            + encode_length_prefixed(
                s.to_bytes((s.bit_length() + 7) // 8 or 1, "big")
            )
        )
        with pytest.raises(ProtocolError):
            decode_exact(SignedTranscript.from_wire, padded)

    def test_verdict_unknown_flags_fail_closed(self):
        wire = GeoProofVerdict.from_wire  # codec under test
        body = encode_uint(1 << 5) + encode_float(1.0) + encode_float(2.0)
        body += encode_uint(0)  # empty bad-MAC list
        with pytest.raises(ProtocolError):
            decode_exact(wire, body)

    def test_verdict_cannot_claim_acceptance_with_failed_check(self):
        verdict = GeoProofVerdict(
            accepted=False,
            signature_ok=False,
            position_ok=True,
            macs_ok=True,
            timing_ok=True,
            challenge_ok=True,
            max_rtt_ms=1.0,
            rtt_max_ms=2.0,
        )
        decoded = decode_exact(GeoProofVerdict.from_wire, verdict.to_wire())
        assert decoded.accepted is False
        assert decoded.failure_reasons == ["signature"]

    def test_verdict_macs_ok_with_bad_list_fails_closed(self):
        body = (
            encode_uint(0b11111)
            + encode_float(1.0)
            + encode_float(2.0)
            + encode_uint(1)
            + encode_uint(7)
        )
        with pytest.raises(ProtocolError):
            decode_exact(GeoProofVerdict.from_wire, body)


def _transcript() -> SignedTranscript:
    return SignedTranscript(
        device_id=b"dev",
        file_id=b"file",
        nonce=b"n" * 16,
        rounds=(
            TimedRound(
                index=3,
                segment=Segment(index=3, payload=b"payload", tag=b"tag"),
                rtt_ms=1.25,
            ),
        ),
        position=GeoPoint(10.5, 20.25),
        proof=BatchProof(b"r" * 32, 2, 1, ((b"s" * 32, False),)),
        signature=(12345, 67890),
    )
