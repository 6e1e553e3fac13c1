"""Truncated message-authentication codes.

The MAC-based POR variant embeds a short tag with every segment:
``tau_i = MAC_K'(S_i, i, fid)``.  The paper uses 20-*bit* tags -- the
protocol verifies many tags per audit, so individually weak tags still
give a strong aggregate bound (a forger must guess all of them).  Tags
are HMAC-SHA256 truncated to a configurable bit length; sub-byte
lengths mask the trailing bits of the final byte.
"""

from __future__ import annotations

import hashlib
import hmac
from collections.abc import Sequence

from repro.errors import ConfigurationError
from repro.util.bitops import ceil_div
from repro.util.serialization import encode_length_prefixed, encode_uint


#: Every one-byte string, by value: the masked last byte of a tag.
_BYTES = tuple(bytes((value,)) for value in range(256))


def _truncate(digest: bytes, tag_bits: int) -> bytes:
    """Truncate a digest to ``tag_bits``, zeroing unused trailing bits."""
    n_bytes = ceil_div(tag_bits, 8)
    tag = bytearray(digest[:n_bytes])
    extra_bits = 8 * n_bytes - tag_bits
    if extra_bits:
        tag[-1] &= 0xFF << extra_bits & 0xFF
    return bytes(tag)


def mac_tag(
    key: bytes,
    segment: bytes,
    index: int,
    file_id: bytes,
    *,
    tag_bits: int = 20,
) -> bytes:
    """Compute the truncated tag ``MAC_K(segment, index, fid)``.

    The three inputs are canonically encoded (length-prefixed / fixed
    width) before MACing so no two logical triples share an encoding.
    Returns ``ceil(tag_bits / 8)`` bytes with unused trailing bits
    zeroed.
    """
    if not 1 <= tag_bits <= 256:
        raise ConfigurationError(f"tag_bits must be in [1, 256], got {tag_bits}")
    message = (
        encode_length_prefixed(segment)
        + encode_uint(index)
        + encode_length_prefixed(file_id)
    )
    digest = hmac.new(key, b"por-tag\x00" + message, hashlib.sha256).digest()
    return _truncate(digest, tag_bits)


def mac_tag_many(
    key: bytes,
    segments: Sequence[bytes],
    file_id: bytes,
    *,
    indices: Sequence[int] | None = None,
    tag_bits: int = 20,
) -> list[bytes]:
    """Tag a batch of segments, amortising the HMAC key schedule.

    Byte-identical to calling :func:`mac_tag` per segment (pinned by
    test): HMAC's inner state after processing the key pad and the
    domain prefix is independent of the message, so it is computed once
    and ``copy()``-ed per segment -- the per-segment cost drops to the
    message blocks alone, which is what makes the per-segment MAC loop
    in ``por/setup.py`` batch-friendly.  ``indices`` defaults to
    ``0..len(segments)-1`` (the setup pipeline's consecutive segment
    indices).
    """
    if not 1 <= tag_bits <= 256:
        raise ConfigurationError(f"tag_bits must be in [1, 256], got {tag_bits}")
    if indices is None:
        indices = range(len(segments))
    elif len(indices) != len(segments):
        raise ConfigurationError(
            f"{len(indices)} indices for {len(segments)} segments"
        )
    fid_encoded = encode_length_prefixed(file_id)
    copy = hmac.new(key, b"por-tag\x00", hashlib.sha256).copy
    # _truncate inline: the byte count and the last byte's mask are
    # fixed for the batch.
    n_bytes = ceil_div(tag_bits, 8)
    last = n_bytes - 1
    mask = 0xFF << (8 * n_bytes - tag_bits) & 0xFF
    tags: list[bytes] = []
    for segment, index in zip(segments, indices):
        mac = copy()
        mac.update(
            encode_length_prefixed(segment) + encode_uint(index) + fid_encoded
        )
        digest = mac.digest()
        tags.append(digest[:last] + _BYTES[digest[last] & mask])
    return tags


def mac_verify_many(
    key: bytes,
    segments: Sequence[bytes],
    tags: Sequence[bytes],
    file_id: bytes,
    *,
    indices: Sequence[int] | None = None,
    tag_bits: int = 20,
) -> list[bool]:
    """Constant-time batch verification; one bool per segment."""
    if len(tags) != len(segments):
        raise ConfigurationError(
            f"{len(tags)} tags for {len(segments)} segments"
        )
    expected = mac_tag_many(
        key, segments, file_id, indices=indices, tag_bits=tag_bits
    )
    return [
        hmac.compare_digest(want, got) for want, got in zip(expected, tags)
    ]


def mac_verify(
    key: bytes,
    segment: bytes,
    index: int,
    file_id: bytes,
    tag: bytes,
    *,
    tag_bits: int = 20,
) -> bool:
    """Constant-time comparison of a received tag against a recomputation."""
    expected = mac_tag(key, segment, index, file_id, tag_bits=tag_bits)
    return hmac.compare_digest(expected, tag)
