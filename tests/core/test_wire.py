"""Property tests: the segment and verdict codecs fail closed.

These are the protocol codecs whose bytes get decoded again: an audit
daemon's verdict reply carries :class:`GeoProofVerdict`'s encoding,
which the client decodes, and a prefetching relay's cache stores
:class:`Segment` encodings and decodes them on a hit.  Three
properties are pinned for each:

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

from repro.core.messages import decode_exact
from repro.core.verification import GeoProofVerdict
from repro.errors import ProtocolError
from repro.por.file_format import Segment
from repro.util.serialization import encode_float, encode_uint

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)

segments = st.builds(
    Segment,
    index=st.integers(0, 2**64 - 1),
    payload=st.binary(max_size=48),
    tag=st.binary(max_size=16),
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


class TestFailClosedShapes:
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

