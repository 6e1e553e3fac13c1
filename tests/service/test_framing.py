"""Frame layer: arbitrary chunking never loses or invents a frame."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.service import MAX_FRAME_BYTES, FrameParser, encode_frame


class TestEncodeFrame:
    def test_prefix_is_big_endian_length(self):
        assert encode_frame(b"abc") == b"\x00\x00\x00\x03abc"

    def test_empty_body_allowed(self):
        assert encode_frame(b"") == b"\x00\x00\x00\x00"

    def test_oversize_body_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame(b"x" * (MAX_FRAME_BYTES + 1))


def drained(parser):
    """No bytes are left over: a fresh empty frame parses on its own."""
    return parser.feed(encode_frame(b"")) == [b""]


class TestFrameParser:
    def test_single_frame_single_feed(self):
        parser = FrameParser()
        assert parser.feed(encode_frame(b"hello")) == [b"hello"]
        assert drained(parser)

    def test_partial_frame_waits(self):
        parser = FrameParser()
        frame = encode_frame(b"hello")
        assert parser.feed(frame[:3]) == []
        assert parser.feed(frame[3:]) == [b"hello"]
        assert drained(parser)

    def test_concatenated_frames_split(self):
        parser = FrameParser()
        data = encode_frame(b"a") + encode_frame(b"bb") + encode_frame(b"")
        assert parser.feed(data) == [b"a", b"bb", b""]

    def test_oversize_declared_length_fails_before_body_arrives(self):
        parser = FrameParser()
        prefix = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError):
            parser.feed(prefix)

    @given(
        bodies=st.lists(st.binary(max_size=200), max_size=10),
        cuts=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_chunking_yields_exactly_the_frames(self, bodies, cuts):
        stream = b"".join(encode_frame(body) for body in bodies)
        parser = FrameParser()
        out = []
        position = 0
        while position < len(stream):
            step = cuts.draw(
                st.integers(1, len(stream) - position), label="chunk"
            )
            out.extend(parser.feed(stream[position : position + step]))
            position += step
        assert out == bodies
        assert drained(parser)
