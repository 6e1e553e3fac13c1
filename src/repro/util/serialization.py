"""Canonical, deterministic byte encodings.

Every value that is MACed or signed in the protocols must have exactly
one byte representation, otherwise an adversary could find two logical
values with the same encoding (or vice versa) and confuse the verifier.
This module provides a tiny length-prefixed encoding with that property:

* unsigned integers are encoded as 8-byte big-endian words;
* byte strings are encoded with a 4-byte big-endian length prefix;
* lists are encoded as a count followed by each element.

Decoding functions consume from an offset and return ``(value, offset)``
so message parsers can be written as straight-line code.
"""

from __future__ import annotations

import struct

from repro.errors import ProtocolError

_UINT = struct.Struct(">Q")
_LEN = struct.Struct(">I")


def encode_uint(value: int) -> bytes:
    """Encode a non-negative integer < 2**64 as 8 big-endian bytes."""
    if value < 0 or value >= 1 << 64:
        raise ProtocolError(f"uint out of range: {value}")
    return _UINT.pack(value)


def decode_uint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode an 8-byte big-endian integer at ``offset``."""
    if offset + 8 > len(data):
        raise ProtocolError("truncated uint")
    return _UINT.unpack_from(data, offset)[0], offset + 8


def encode_length_prefixed(payload: bytes) -> bytes:
    """Encode a byte string with a 4-byte big-endian length prefix."""
    if len(payload) >= 1 << 32:
        raise ProtocolError("payload too large to length-prefix")
    return _LEN.pack(len(payload)) + payload


def decode_length_prefixed(data: bytes, offset: int = 0) -> tuple[bytes, int]:
    """Decode a length-prefixed byte string at ``offset``."""
    if offset + 4 > len(data):
        raise ProtocolError("truncated length prefix")
    (length,) = _LEN.unpack_from(data, offset)
    offset += 4
    if offset + length > len(data):
        raise ProtocolError("truncated payload")
    return data[offset : offset + length], offset + length


def encode_uint_list(values: list[int]) -> bytes:
    """Encode a list of unsigned integers (count, then each value)."""
    parts = [encode_uint(len(values))]
    parts.extend(encode_uint(v) for v in values)
    return b"".join(parts)


def decode_uint_list(data: bytes, offset: int = 0) -> tuple[list[int], int]:
    """Decode a list produced by :func:`encode_uint_list`."""
    count, offset = decode_uint(data, offset)
    values: list[int] = []
    for _ in range(count):
        value, offset = decode_uint(data, offset)
        values.append(value)
    return values, offset


def encode_bytes_list(items: list[bytes]) -> bytes:
    """Encode a list of byte strings (count, then each length-prefixed)."""
    parts = [encode_uint(len(items))]
    parts.extend(encode_length_prefixed(item) for item in items)
    return b"".join(parts)


def decode_bytes_list(data: bytes, offset: int = 0) -> tuple[list[bytes], int]:
    """Decode a list produced by :func:`encode_bytes_list`."""
    count, offset = decode_uint(data, offset)
    items: list[bytes] = []
    for _ in range(count):
        item, offset = decode_length_prefixed(data, offset)
        items.append(item)
    return items, offset


def encode_float(value: float) -> bytes:
    """Encode a float as 8 bytes (IEEE-754 big-endian).

    Timing values in signed transcripts are floats (milliseconds of
    simulated time); IEEE-754 doubles round-trip exactly.
    """
    return struct.pack(">d", value)


def decode_float(data: bytes, offset: int = 0) -> tuple[float, int]:
    """Decode an 8-byte IEEE-754 double at ``offset``."""
    if offset + 8 > len(data):
        raise ProtocolError("truncated float")
    return struct.unpack_from(">d", data, offset)[0], offset + 8
