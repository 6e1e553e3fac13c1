"""Unit and property tests for the canonical serialization."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ProtocolError
from repro.util.serialization import (
    decode_bytes_list,
    decode_float,
    decode_length_prefixed,
    decode_uint,
    decode_uint_list,
    encode_bytes_list,
    encode_float,
    encode_length_prefixed,
    encode_uint,
    encode_uint_list,
)


class TestUint:
    def test_fixed_width(self):
        assert len(encode_uint(0)) == 8
        assert len(encode_uint(2**64 - 1)) == 8

    def test_rejects_negative(self):
        with pytest.raises(ProtocolError):
            encode_uint(-1)

    def test_rejects_too_large(self):
        with pytest.raises(ProtocolError):
            encode_uint(2**64)

    def test_truncated_decode(self):
        with pytest.raises(ProtocolError):
            decode_uint(b"\x00" * 7)

    @given(st.integers(0, 2**64 - 1))
    def test_roundtrip(self, value):
        encoded = encode_uint(value)
        decoded, offset = decode_uint(encoded)
        assert decoded == value
        assert offset == 8


class TestLengthPrefixed:
    def test_empty_payload(self):
        encoded = encode_length_prefixed(b"")
        assert decode_length_prefixed(encoded) == (b"", 4)

    def test_truncated_payload(self):
        encoded = encode_length_prefixed(b"abcdef")
        with pytest.raises(ProtocolError):
            decode_length_prefixed(encoded[:-1])

    def test_truncated_prefix(self):
        with pytest.raises(ProtocolError):
            decode_length_prefixed(b"\x00\x00")

    @given(st.binary(max_size=256))
    def test_roundtrip(self, payload):
        decoded, offset = decode_length_prefixed(encode_length_prefixed(payload))
        assert decoded == payload


class TestLists:
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=50))
    def test_uint_list_roundtrip(self, values):
        decoded, _ = decode_uint_list(encode_uint_list(values))
        assert decoded == values

    @given(st.lists(st.binary(max_size=32), max_size=30))
    def test_bytes_list_roundtrip(self, items):
        decoded, _ = decode_bytes_list(encode_bytes_list(items))
        assert decoded == items

    def test_concatenated_structures_decode_in_sequence(self):
        blob = encode_uint(7) + encode_bytes_list([b"x", b"yz"]) + encode_float(1.5)
        value, offset = decode_uint(blob, 0)
        items, offset = decode_bytes_list(blob, offset)
        number, offset = decode_float(blob, offset)
        assert (value, items, number) == (7, [b"x", b"yz"], 1.5)
        assert offset == len(blob)


class TestOffsetRoundTrips:
    """Decoding must work mid-stream: any prefix, any interleaving."""

    @given(st.binary(max_size=32), st.lists(st.integers(0, 2**64 - 1), max_size=20))
    def test_uint_list_decodes_after_arbitrary_prefix(self, prefix, values):
        data = prefix + encode_uint_list(values)
        decoded, offset = decode_uint_list(data, len(prefix))
        assert decoded == values
        assert offset == len(data)

    @given(st.binary(max_size=32), st.lists(st.binary(max_size=32), max_size=10))
    def test_bytes_list_decodes_after_arbitrary_prefix(self, prefix, items):
        data = prefix + encode_bytes_list(items)
        decoded, offset = decode_bytes_list(data, len(prefix))
        assert decoded == items
        assert offset == len(data)

    @given(
        st.lists(st.integers(0, 2**64 - 1), max_size=10),
        st.lists(st.binary(max_size=16), max_size=10),
        st.lists(st.floats(allow_nan=False), max_size=10),
    )
    def test_heterogeneous_stream_round_trips(self, uints, blobs, floats):
        """Concatenated structures parse back as straight-line code."""
        stream = (
            encode_uint_list(uints)
            + encode_bytes_list(blobs)
            + b"".join(map(encode_float, floats))
        )
        decoded_uints, offset = decode_uint_list(stream)
        decoded_blobs, offset = decode_bytes_list(stream, offset)
        decoded_floats = []
        for _ in floats:
            value, offset = decode_float(stream, offset)
            decoded_floats.append(value)
        assert decoded_uints == uints
        assert decoded_blobs == blobs
        assert decoded_floats == floats
        assert offset == len(stream)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
    def test_uint_list_width_is_fixed(self, values):
        """Count word plus one 8-byte word per element, exactly."""
        assert len(encode_uint_list(values)) == 8 * (len(values) + 1)


class TestMalformedStreams:
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
    def test_truncated_uint_list_raises(self, values):
        encoded = encode_uint_list(values)
        with pytest.raises(ProtocolError):
            decode_uint_list(encoded[:-1])

    @given(st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=10))
    def test_truncated_bytes_list_raises(self, items):
        encoded = encode_bytes_list(items)
        with pytest.raises(ProtocolError):
            decode_bytes_list(encoded[:-1])

    def test_overstated_count_raises(self):
        # A count word promising more elements than the stream holds.
        encoded = encode_uint(3) + encode_uint(1) + encode_uint(2)
        with pytest.raises(ProtocolError):
            decode_uint_list(encoded)

    def test_float_special_values_round_trip(self):
        for value in (0.0, -0.0, float("inf"), float("-inf"), 1e-308):
            decoded, _ = decode_float(encode_float(value))
            assert decoded == value
            # IEEE-754 bit-exactness: -0.0 keeps its sign.
            assert str(decoded) == str(value)


class TestCanonicity:
    """No two distinct logical values may share an encoding."""

    @given(
        st.lists(st.binary(max_size=8), max_size=8),
        st.lists(st.binary(max_size=8), max_size=8),
    )
    def test_bytes_list_injective(self, a, b):
        if a != b:
            assert encode_bytes_list(a) != encode_bytes_list(b)

    @given(
        st.lists(st.integers(0, 2**32), max_size=8),
        st.lists(st.integers(0, 2**32), max_size=8),
    )
    def test_uint_list_injective(self, a, b):
        if a != b:
            assert encode_uint_list(a) != encode_uint_list(b)
