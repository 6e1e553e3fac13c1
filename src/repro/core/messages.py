"""GeoProof protocol messages (Fig. 5).

The three messages of one audit:

1. :class:`AuditRequest` -- TPA -> V: total segment count ``n~``, the
   number of rounds ``k``, and a fresh nonce ``N``.
2. :class:`TimedRound` -- one row of the distance-bounding phase:
   index ``c_j``, the returned segment ``S_cj || tau_cj``, and the
   measured ``Delta-t_j``.
3. :class:`SignedTranscript` -- V -> TPA: the paper's
   ``R = Sign_SK(Delta-t*, c, {S_cj}, N, Pos_V)``.

The device and the TPA run in one process and hand these records to
each other as objects; the only bytes that cross a socket are the
audit daemon's orders and verdicts (:mod:`repro.service.wire`).  What
does need bytes is the signature.  Every transcript has one canonical
byte encoding, :func:`transcript_payload` (read back through
:meth:`SignedTranscript.signed_payload`).  The device does not sign
each payload on its own: the payloads of the runs one seal names are
the leaves of a :class:`~repro.por.merkle.MerkleTree`, and the device
signs :func:`batch_root_message` -- a domain tag, the tree size and the
root -- once per seal.  Each transcript carries that signature plus its
:class:`BatchProof` (root, size, leaf index, authentication path).
The TPA recomputes the payload, walks the path to the root and
verifies the root signature, so a signature and a collision-resistant
path together authenticate exactly the bytes the device measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from repro.errors import ConfigurationError, ProtocolError
from repro.geo.coords import GeoPoint
from repro.por.file_format import Segment
from repro.util.serialization import (
    encode_float,
    encode_length_prefixed,
    encode_uint,
)

_M = TypeVar("_M")

#: Leading magic of every signed transcript payload.
TRANSCRIPT_MAGIC = b"geoproof-transcript-v2"

#: Domain tag of the one message a verifier device signs per batch.
BATCH_ROOT_TAG = b"geoproof-batch-root-v1"


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
    the device calls it as it finishes each run, and
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
        """The paper's Delta-t' = max_j Delta-t_j; NaN if any round is NaN.

        ``max()`` alone would keep a finite first round over a later
        NaN, and a NaN compares below every budget.
        """
        if not self.rounds:
            raise ConfigurationError("transcript has no rounds")
        rtts = [round_.rtt_ms for round_ in self.rounds]
        total = sum(rtts)
        return max(rtts) if total == total else total

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

        The encoding is memoized on the (frozen) instance.
        :meth:`~repro.cloud.verifier.VerifierDevice.seal` seeds the
        memo with the bytes it signed, so the TPA's verifier reads
        them back instead of encoding them again; an instance built any
        other way encodes once, on its first call.
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
