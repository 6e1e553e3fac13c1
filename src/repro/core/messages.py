"""GeoProof protocol messages (Fig. 5).

Three message types cross the wire:

1. :class:`AuditRequest` -- TPA -> V: total segment count ``n~``, the
   number of rounds ``k``, and a fresh nonce ``N``.
2. :class:`TimedRound` -- one row of the distance-bounding phase:
   index ``c_j``, the returned segment ``S_cj || tau_cj``, and the
   measured ``Delta-t_j``.
3. :class:`SignedTranscript` -- V -> TPA: the paper's
   ``R = Sign_SK(Delta-t*, c, {S_cj}, N, Pos_V)``.

Every transcript has one canonical byte encoding,
:func:`transcript_payload` (read back through
:meth:`SignedTranscript.signed_payload`).  The device does not sign
each payload on its own: the payloads of one protocol batch are the
leaves of a :class:`~repro.por.merkle.MerkleTree`, and the device signs
:func:`batch_root_message` -- a domain tag, the tree size and the root
-- once per batch.  Each transcript carries that signature plus its
:class:`BatchProof` (root, size, leaf index, authentication path).
The TPA recomputes the payload, walks the path to the root and
verifies the root signature, so a signature and a collision-resistant
path together authenticate exactly the bytes the device measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from repro.errors import ConfigurationError, ProtocolError
from repro.geo.coords import GeoPoint
from repro.por.file_format import Segment
from repro.util.serialization import (
    decode_float,
    decode_length_prefixed,
    decode_uint,
    encode_float,
    encode_length_prefixed,
    encode_uint,
)

_M = TypeVar("_M")

#: Leading magic of every signed transcript payload (and wire encoding).
TRANSCRIPT_MAGIC = b"geoproof-transcript-v2"

#: Domain tag of the one message a verifier device signs per batch.
BATCH_ROOT_TAG = b"geoproof-batch-root-v1"

_DIGEST_BYTES = 32  # SHA-256: every Merkle root and sibling


def decode_exact(
    decoder: Callable[[bytes, int], tuple[_M, int]], data: bytes
) -> _M:
    """Decode exactly one message from ``data``; fail closed otherwise.

    The service plane's frame bodies must each hold one whole message:
    trailing bytes mean a concatenated or corrupted frame, and decoding
    rejects it rather than silently ignoring the tail.
    """
    value, offset = decoder(data, 0)
    if offset != len(data):
        raise ProtocolError(
            f"{len(data) - offset} trailing bytes after message"
        )
    return value


def _encode_sigint(value: int) -> bytes:
    """Length-prefixed minimal big-endian encoding of one signature int."""
    if value < 0:
        raise ProtocolError(f"signature component must be >= 0, got {value}")
    return encode_length_prefixed(
        value.to_bytes(max((value.bit_length() + 7) // 8, 1), "big")
    )


def _decode_sigint(data: bytes, offset: int) -> tuple[int, int]:
    """Decode one signature int; non-minimal encodings fail closed."""
    raw, offset = decode_length_prefixed(data, offset)
    if not raw or (len(raw) > 1 and raw[0] == 0):
        raise ProtocolError("non-canonical signature int on the wire")
    return int.from_bytes(raw, "big"), offset


def batch_root_message(root: bytes, n_leaves: int) -> bytes:
    """The bytes a verifier device signs for one batch of transcripts.

    The domain tag, the tree size as 8 big-endian bytes, then the
    root.  Binding the size keeps a proof from one tree shape from
    being read against another of the same root.
    """
    return BATCH_ROOT_TAG + n_leaves.to_bytes(8, "big") + root


@dataclass(frozen=True, slots=True)
class BatchProof:
    """Where one transcript sits in its batch's signed hash tree.

    ``path`` is the ``(sibling, sibling_is_right)`` sequence that
    :meth:`~repro.por.merkle.MerkleTree.proof` returns for
    ``leaf_index``.  The leaf hash binds the index, so a path verifies
    only at the position it was issued for.
    """

    root: bytes
    n_leaves: int
    leaf_index: int
    path: tuple[tuple[bytes, bool], ...]

    def wire_bytes(self) -> bytes:
        """Canonical encoding: root, size, index, then the path."""
        parts = [
            encode_length_prefixed(self.root),
            encode_uint(self.n_leaves),
            encode_uint(self.leaf_index),
            encode_uint(len(self.path)),
        ]
        for sibling, sibling_is_right in self.path:
            parts.append(encode_length_prefixed(sibling))
            parts.append(b"\x01" if sibling_is_right else b"\x00")
        return b"".join(parts)

    @classmethod
    def from_wire(cls, data: bytes, offset: int = 0) -> tuple["BatchProof", int]:
        """Parse a proof; every shape no tree can issue fails closed."""
        root, offset = decode_length_prefixed(data, offset)
        if len(root) != _DIGEST_BYTES:
            raise ProtocolError(f"batch root must be 32 bytes, got {len(root)}")
        n_leaves, offset = decode_uint(data, offset)
        if n_leaves == 0:
            raise ProtocolError("batch proof for an empty tree")
        leaf_index, offset = decode_uint(data, offset)
        if leaf_index >= n_leaves:
            raise ProtocolError(
                f"leaf index {leaf_index} outside a {n_leaves}-leaf tree"
            )
        n_steps, offset = decode_uint(data, offset)
        # A tree of n leaves has ceil(log2 n) levels below its root.
        if n_steps > (n_leaves - 1).bit_length():
            raise ProtocolError(
                f"{n_steps}-step path for a {n_leaves}-leaf tree"
            )
        path: list[tuple[bytes, bool]] = []
        for _ in range(n_steps):
            sibling, offset = decode_length_prefixed(data, offset)
            if len(sibling) != _DIGEST_BYTES:
                raise ProtocolError(
                    f"path sibling must be 32 bytes, got {len(sibling)}"
                )
            if offset >= len(data):
                raise ProtocolError("truncated path direction")
            direction = data[offset]
            if direction > 1:
                raise ProtocolError(f"bad path direction byte {direction}")
            path.append((sibling, direction == 1))
            offset += 1
        return cls(root, n_leaves, leaf_index, tuple(path)), offset


@dataclass(frozen=True, slots=True)
class AuditRequest:
    """TPA -> verifier: audit parameters for one protocol run."""

    file_id: bytes
    n_segments: int  # the paper's n~
    k: int  # rounds to run / segments to check
    nonce: bytes  # the paper's N

    def __post_init__(self) -> None:
        if self.n_segments <= 0:
            raise ConfigurationError(
                f"n_segments must be positive, got {self.n_segments}"
            )
        if not 0 < self.k <= self.n_segments:
            raise ConfigurationError(
                f"k must be in 1..{self.n_segments}, got {self.k}"
            )
        if len(self.nonce) < 8:
            raise ConfigurationError(
                f"nonce must be >= 8 bytes, got {len(self.nonce)}"
            )

    def to_wire(self) -> bytes:
        """Canonical wire encoding (one service frame body)."""
        return (
            encode_length_prefixed(self.file_id)
            + encode_uint(self.n_segments)
            + encode_uint(self.k)
            + encode_length_prefixed(self.nonce)
        )

    @classmethod
    def from_wire(
        cls, data: bytes, offset: int = 0
    ) -> tuple["AuditRequest", int]:
        """Parse a request; invalid field combinations fail closed."""
        file_id, offset = decode_length_prefixed(data, offset)
        n_segments, offset = decode_uint(data, offset)
        k, offset = decode_uint(data, offset)
        nonce, offset = decode_length_prefixed(data, offset)
        try:
            request = cls(
                file_id=file_id, n_segments=n_segments, k=k, nonce=nonce
            )
        except ConfigurationError as exc:
            raise ProtocolError(f"invalid audit request: {exc}") from exc
        return request, offset


@dataclass(frozen=True, slots=True)
class TimedRound:
    """One distance-bounding round: challenge index, response, RTT."""

    index: int
    segment: Segment
    rtt_ms: float

    def wire_bytes(self) -> bytes:
        """Canonical encoding used inside the signed payload."""
        return (
            encode_uint(self.index)
            + self.segment.wire_bytes()
            + encode_float(self.rtt_ms)
        )

    to_wire = wire_bytes

    @classmethod
    def from_wire(
        cls, data: bytes, offset: int = 0
    ) -> tuple["TimedRound", int]:
        """Parse one round; a non-finite timing fails closed."""
        index, offset = decode_uint(data, offset)
        segment, offset = Segment.from_wire(data, offset)
        rtt_ms, offset = decode_float(data, offset)
        if not math.isfinite(rtt_ms):
            raise ProtocolError(f"non-finite round time: {rtt_ms}")
        return cls(index=index, segment=segment, rtt_ms=rtt_ms), offset


def transcript_payload(
    device_id: bytes,
    file_id: bytes,
    nonce: bytes,
    rounds: Sequence[TimedRound],
    position: GeoPoint,
) -> bytes:
    """The canonical bytes a device attests for one audit.

    The magic, the length-prefixed device id, file id and nonce, the
    round count, every round's :meth:`TimedRound.wire_bytes`, then the
    GPS latitude and longitude.  The one encoder of a transcript leaf:
    the device calls it while it signs a batch, and
    :meth:`SignedTranscript.signed_payload` calls it for everyone else.
    """
    parts = [
        TRANSCRIPT_MAGIC,
        encode_length_prefixed(device_id),
        encode_length_prefixed(file_id),
        encode_length_prefixed(nonce),
        encode_uint(len(rounds)),
    ]
    parts.extend(round_.wire_bytes() for round_ in rounds)
    parts.append(encode_float(position.latitude))
    parts.append(encode_float(position.longitude))
    return b"".join(parts)


@dataclass(frozen=True)
class SignedTranscript:
    """The verifier's signed report R.

    Contains the challenge (implicit in the round indices), all
    returned segments with embedded tags, all timings, the TPA's nonce
    and the device's GPS position.  ``proof`` places the canonical
    encoding of all of it in its batch's hash tree, and ``signature``
    is the device's Schnorr signature over that tree's
    :func:`batch_root_message`.
    """

    device_id: bytes
    file_id: bytes
    nonce: bytes
    rounds: tuple[TimedRound, ...]
    position: GeoPoint
    proof: BatchProof
    signature: tuple[int, int]

    @property
    def k(self) -> int:
        """Number of timed rounds in the transcript."""
        return len(self.rounds)

    @property
    def max_rtt_ms(self) -> float:
        """The paper's Delta-t' = max_j Delta-t_j."""
        if not self.rounds:
            raise ConfigurationError("transcript has no rounds")
        return max(round_.rtt_ms for round_ in self.rounds)

    @property
    def mean_rtt_ms(self) -> float:
        """Average round time (used by the robustness ablation)."""
        if not self.rounds:
            raise ConfigurationError("transcript has no rounds")
        return sum(round_.rtt_ms for round_ in self.rounds) / len(self.rounds)

    def challenge_indices(self) -> list[int]:
        """The challenge set c in round order."""
        return [round_.index for round_ in self.rounds]

    def signed_payload(self) -> bytes:
        """The canonical bytes the device attests (and the TPA checks).

        Covers device id, file id, nonce, every round (index, segment
        payload+tag, timing) and the GPS position -- altering any of
        them breaks the transcript's path to its signed root.  This is
        the transcript's leaf in the batch tree; the proof and the
        signature are not part of it.

        The encoding is memoized on the (frozen) instance: the device
        encodes it to sign, the TPA re-encodes the same instance to
        verify, and the service plane encodes it again for the wire,
        so one transcript is asked for its payload several times.
        ``dataclasses.replace`` builds a fresh instance, so a tampered
        copy never inherits the original's cache.
        """
        cached = self.__dict__.get("_signed_payload")
        if cached is not None:
            return cached
        payload = transcript_payload(
            self.device_id, self.file_id, self.nonce, self.rounds, self.position
        )
        # Frozen dataclass: write the cache the same way cached_property
        # would (eq/hash/repr read fields only, never __dict__).
        object.__setattr__(self, "_signed_payload", payload)
        return payload

    def to_wire(self) -> bytes:
        """Wire encoding: the signed payload, the proof, the signature.

        The TPA side of the wire checks the path from exactly the
        payload bytes it received, so the encoding *is* the canonical
        payload followed by the batch proof and the two signature ints.
        """
        commitment, s = self.signature
        return (
            self.signed_payload()
            + self.proof.wire_bytes()
            + _encode_sigint(commitment)
            + _encode_sigint(s)
        )

    @classmethod
    def from_wire(
        cls, data: bytes, offset: int = 0
    ) -> tuple["SignedTranscript", int]:
        """Parse a transcript; every malformed shape fails closed.

        The decoded instance's payload cache is seeded with the exact
        bytes consumed -- the fixed-width/length-prefixed encoding is
        canonical (each value has exactly one accepted encoding), so
        those bytes equal a re-encode, and the path check runs over
        precisely what crossed the wire.  Any other magic, the previous
        version's included, fails closed.
        """
        start = offset
        magic_end = offset + len(TRANSCRIPT_MAGIC)
        if data[offset:magic_end] != TRANSCRIPT_MAGIC:
            raise ProtocolError("bad transcript magic")
        offset = magic_end
        device_id, offset = decode_length_prefixed(data, offset)
        file_id, offset = decode_length_prefixed(data, offset)
        nonce, offset = decode_length_prefixed(data, offset)
        n_rounds, offset = decode_uint(data, offset)
        rounds: list[TimedRound] = []
        for _ in range(n_rounds):
            round_, offset = TimedRound.from_wire(data, offset)
            rounds.append(round_)
        latitude, offset = decode_float(data, offset)
        longitude, offset = decode_float(data, offset)
        payload_end = offset
        proof, offset = BatchProof.from_wire(data, offset)
        commitment, offset = _decode_sigint(data, offset)
        s, offset = _decode_sigint(data, offset)
        try:
            position = GeoPoint(latitude, longitude)
        except ConfigurationError as exc:
            raise ProtocolError(f"invalid GPS position: {exc}") from exc
        transcript = cls(
            device_id=device_id,
            file_id=file_id,
            nonce=nonce,
            rounds=tuple(rounds),
            position=position,
            proof=proof,
            signature=(commitment, s),
        )
        object.__setattr__(
            transcript, "_signed_payload", bytes(data[start:payload_end])
        )
        return transcript, offset
