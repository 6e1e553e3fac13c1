"""Service envelope: round-trips and fail-closed decoding."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.verification import GeoProofVerdict
from repro.errors import ProtocolError
from repro.service import (
    OP_AUDIT,
    AuditOrder,
    ErrorReply,
    StatsReply,
    StatsRequest,
    VerdictReply,
    decode_reply,
    decode_request,
)
from repro.storage.contract import MAX_FILE_ID_BYTES
from repro.util.serialization import encode_length_prefixed, encode_uint

orders = st.builds(
    AuditOrder,
    order_id=st.integers(0, 2**64 - 1),
    file_id=st.binary(min_size=1, max_size=64),
    k=st.integers(0, 2**32),
)

error_replies = st.builds(
    ErrorReply,
    order_id=st.integers(0, 2**64 - 1),
    message=st.text(max_size=100),
)


def _verdict(accepted: bool) -> GeoProofVerdict:
    return GeoProofVerdict(
        signature_ok=accepted,
        position_ok=accepted,
        macs_ok=accepted,
        timing_ok=accepted,
        challenge_ok=accepted,
        accepted=accepted,
        max_rtt_ms=1.25,
        rtt_max_ms=3.0,
        bad_mac_indices=() if accepted else (2, 7),
    )


class TestRoundTrip:
    @given(order=orders)
    @settings(max_examples=100, deadline=None)
    def test_order(self, order):
        assert decode_request(order.to_wire()) == order

    @given(reply=error_replies)
    @settings(max_examples=100, deadline=None)
    def test_error_reply(self, reply):
        assert decode_reply(reply.to_wire()) == reply

    @pytest.mark.parametrize("accepted", [True, False])
    def test_verdict_reply(self, accepted):
        reply = VerdictReply(order_id=9, verdict=_verdict(accepted))
        assert decode_reply(reply.to_wire()) == reply


class TestFailClosed:
    def test_empty_bodies(self):
        with pytest.raises(ProtocolError):
            decode_request(b"")
        with pytest.raises(ProtocolError):
            decode_reply(b"")

    def test_unknown_opcodes(self):
        with pytest.raises(ProtocolError):
            decode_request(b"\x7f")
        with pytest.raises(ProtocolError):
            decode_reply(b"\x7f")

    def test_request_reply_opcodes_do_not_cross(self):
        order = AuditOrder(1, b"f", 3)
        with pytest.raises(ProtocolError):
            decode_reply(order.to_wire())
        reply = ErrorReply(1, "nope")
        with pytest.raises(ProtocolError):
            decode_request(reply.to_wire())

    @given(order=orders, cut=st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncated_order_fails(self, order, cut):
        wire = order.to_wire()
        end = cut.draw(st.integers(0, len(wire) - 1), label="cut")
        with pytest.raises(ProtocolError):
            decode_request(wire[:end] if end else b"")

    def test_trailing_bytes_fail(self):
        with pytest.raises(ProtocolError):
            decode_request(AuditOrder(1, b"f", 3).to_wire() + b"\x00")
        with pytest.raises(ProtocolError):
            decode_reply(ErrorReply(1, "x").to_wire() + b"\x00")

    def test_invalid_utf8_error_message_fails(self):
        wire = bytearray(ErrorReply(1, "ab").to_wire())
        wire[-2:] = b"\xff\xfe"  # overwrite the message bytes
        with pytest.raises(ProtocolError):
            decode_reply(bytes(wire))

    def test_empty_file_id_rejected_at_build_and_decode(self):
        with pytest.raises(ProtocolError):
            AuditOrder(1, b"", 3)
        # hand-roll the same encoding with a zero-length file id
        with pytest.raises(ProtocolError):
            decode_request(order_body(b""))

    def test_file_id_past_the_storage_bound_rejected_at_build_and_decode(self):
        """No backend stores an id longer than the storage contract's
        bound, so the envelope refuses one before it reaches the TPA."""
        longest = b"\xff" * MAX_FILE_ID_BYTES
        assert decode_request(order_body(longest)) == AuditOrder(1, longest, 3)
        with pytest.raises(ProtocolError, match="file id must be 1..256 bytes"):
            AuditOrder(1, longest + b"\xff", 3)
        with pytest.raises(ProtocolError, match="got 300000"):
            decode_request(order_body(b"\xff" * 300_000))


def order_body(file_id: bytes) -> bytes:
    """An order's body for ``file_id``, encoded without validating it."""
    return (
        bytes([OP_AUDIT])
        + encode_uint(1)
        + encode_length_prefixed(file_id)
        + encode_uint(3)
    )


class TestStatsOp:
    @given(order_id=st.integers(0, 2**64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_request_round_trip(self, order_id):
        request = StatsRequest(order_id)
        assert decode_request(request.to_wire()) == request

    def test_reply_round_trip(self):
        payload = {
            "n_orders": 12,
            "queue_depth": 0,
            "latency_p99_ms": 1.5,
            "flush_sizes": {"count": 3, "buckets": [[1.0, 1], ["+Inf", 3]]},
        }
        reply = StatsReply(7, payload)
        assert decode_reply(reply.to_wire()) == reply

    def test_request_and_reply_opcodes_do_not_cross(self):
        with pytest.raises(ProtocolError):
            decode_reply(StatsRequest(1).to_wire())
        with pytest.raises(ProtocolError):
            decode_request(StatsReply(1, {}).to_wire())

    def test_reply_with_garbage_json_fails_closed(self):
        wire = bytearray(StatsReply(1, {"a": 1}).to_wire())
        wire[-1] = 0xFF  # corrupt the JSON payload
        with pytest.raises(ProtocolError):
            decode_reply(bytes(wire))

    def test_reply_with_non_object_json_fails_closed(self):
        from repro.util.serialization import (
            encode_length_prefixed,
            encode_uint,
        )
        from repro.service import OP_STATS_REPLY

        body = (
            bytes([OP_STATS_REPLY])
            + encode_uint(1)
            + encode_length_prefixed(b"[1, 2]")
        )
        with pytest.raises(ProtocolError):
            decode_reply(body)

    def test_trailing_bytes_fail(self):
        with pytest.raises(ProtocolError):
            decode_request(StatsRequest(1).to_wire() + b"\x00")
        with pytest.raises(ProtocolError):
            decode_reply(StatsReply(1, {}).to_wire() + b"\x00")
