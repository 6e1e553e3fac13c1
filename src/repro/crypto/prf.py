"""HMAC-SHA256 pseudorandom function.

All keyed pseudorandomness in the library -- challenge derivation, the
Feistel PRP's round functions, the Hancke-Kuhn register derivation --
bottoms out here.  Domain separation is by an explicit ``label``
argument, so different uses of the same key cannot collide.

:func:`prf_many` is the batch entry point: it runs the HMAC key
schedule once and evaluates the PRF for a whole list of messages,
byte-identical to calling :func:`prf` per message.  Hot paths (the
Feistel permutation engine) use it to amortise the two key-pad
compressions HMAC pays per fresh key.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Iterable, Iterator

from repro.errors import ConfigurationError
from repro.util.bitops import ceil_div

DIGEST_SIZE = hashlib.sha256().digest_size  # 32 bytes


def _check_label(label: bytes) -> None:
    if b"\x00" in label:
        raise ConfigurationError("PRF labels must not contain NUL bytes")


def prf(key: bytes, label: bytes, message: bytes = b"") -> bytes:
    """Return HMAC-SHA256(key, label || 0x00 || message), 32 bytes.

    The ``0x00`` separator makes (label, message) pairs injective as
    long as labels never contain a zero byte; library-internal labels
    are short ASCII tags so this holds by construction.
    """
    _check_label(label)
    return hmac.new(key, label + b"\x00" + message, hashlib.sha256).digest()


def prf_base(key: bytes, label: bytes) -> "hmac.HMAC":
    """A primed HMAC state for repeated ``prf(key, label, *)`` calls.

    ``base.copy().update(message); .digest()`` equals
    ``prf(key, label, message)`` byte for byte, but the two key-pad
    compressions are paid once per (key, label) instead of per call.
    The DRBG caches one of these per stream so block refills on hot
    audit paths cost only the message compressions.
    """
    _check_label(label)
    return hmac.new(key, label + b"\x00", hashlib.sha256)


def prf_many(
    key: bytes, label: bytes, messages: Iterable[bytes]
) -> Iterator[bytes]:
    """Yield ``prf(key, label, m)`` for each message, sharing key setup.

    ``hmac.new`` pays two SHA-256 compressions to absorb the padded key
    before any message byte; this helper pays them once, then clones
    the primed state per message, so each digest costs only the message
    compressions.  Output is byte-identical to per-message :func:`prf`,
    including eager label validation at the call site.
    """
    _check_label(label)
    base = hmac.new(key, label + b"\x00", hashlib.sha256)

    def digests() -> Iterator[bytes]:
        for message in messages:
            clone = base.copy()
            clone.update(message)
            yield clone.digest()

    return digests()


def prf_stream(key: bytes, label: bytes, message: bytes, n_bytes: int) -> bytes:
    """Expand the PRF to ``n_bytes`` via counter-mode iteration.

    Output block *i* is ``PRF(key, label, message || uint32(i))``; the
    construction is the standard counter-mode KDF from SP 800-108.
    """
    if n_bytes < 0:
        raise ConfigurationError(f"n_bytes must be >= 0, got {n_bytes}")
    blocks = prf_many(
        key,
        label,
        (
            message + counter.to_bytes(4, "big")
            for counter in range(ceil_div(n_bytes, DIGEST_SIZE))
        ),
    )
    return b"".join(blocks)[:n_bytes]
