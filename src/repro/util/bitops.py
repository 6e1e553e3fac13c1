"""Bit-manipulation helpers.

Distance-bounding protocols operate on individual bits (the timed phase
exchanges one challenge bit and one response bit per round), while the
POR file format operates on fixed-width blocks.  These helpers provide
the conversions between the two views, with explicit validation so that
protocol code never silently truncates.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division ``ceil(a / b)`` for non-negative ``a``.

    >>> ceil_div(10, 4)
    3
    >>> ceil_div(8, 4)
    2
    """
    if b <= 0:
        raise ConfigurationError(f"ceil_div divisor must be positive, got {b}")
    if a < 0:
        raise ConfigurationError(f"ceil_div dividend must be >= 0, got {a}")
    return -(-a // b)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings.

    >>> xor_bytes(b"\\x0f", b"\\xf0")
    b'\\xff'
    """
    if len(a) != len(b):
        raise ConfigurationError(
            f"xor_bytes requires equal lengths, got {len(a)} and {len(b)}"
        )
    return bytes(x ^ y for x, y in zip(a, b))


def bit_at(data: bytes, index: int) -> int:
    """Return bit ``index`` of ``data`` (MSB-first across the string).

    Used by Hancke-Kuhn style registers: the prover answers round *i*
    with the *i*-th bit of one of its two registers.
    """
    if not 0 <= index < 8 * len(data):
        raise ConfigurationError(
            f"bit index {index} out of range for {len(data)} bytes"
        )
    byte = data[index // 8]
    return (byte >> (7 - (index % 8))) & 1


def split_in_half(data: bytes) -> tuple[bytes, bytes]:
    """Split a byte string into two equal halves.

    Hancke-Kuhn derives a 2n-bit string from the nonces and splits it
    into the two n-bit registers ``l`` and ``r``.
    """
    if len(data) % 2 != 0:
        raise ConfigurationError(
            f"split_in_half requires even length, got {len(data)}"
        )
    mid = len(data) // 2
    return data[:mid], data[mid:]
