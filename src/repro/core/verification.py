"""The TPA's verification of a signed transcript (Section V-B).

"The TPA (A) does the verification process which involves the
following steps:

1. Verify the signature Sign_SK(R).
2. Verify V's GPS position Pos_V.
3. Check that tau_cj = MAC_K(S_cj, c_j, fid) for each c_j.
4. Find the maximum time Delta-t' = max(...) and check that
   Delta-t' <= Delta-t_max."

:func:`verify_transcript` runs all four and returns a structured
:class:`GeoProofVerdict` -- callers get every check's outcome, not just
a boolean, because the failure *mode* is the experimental observable
(timing failures indicate relays, MAC failures indicate corruption,
GPS failures indicate device relocation).

Step 1 has two parts, because the device signs one hash-tree root per
seal rather than each transcript: the transcript's payload
must lead through its :class:`~repro.core.messages.BatchProof` path to
the claimed root, and the device's signature must hold over
:func:`~repro.core.messages.batch_root_message` for that root and
tree size.  A tampered transcript fails its own path and nothing else.

:func:`verify_transcripts` is the batch plane over the same semantics:
it groups every round of every transcript into one
:func:`~repro.crypto.mac.mac_verify_many` call per (key, file, tag
width), checks each distinct root signature once through one
:func:`~repro.crypto.schnorr.schnorr_verify_many` call per verifier
key, then reassembles per-transcript verdicts that are byte-identical
to running the scalar loop job by job.  The scalar
:func:`verify_transcript` stays as the semantics anchor, same pattern
as slot-vs-event and vec-vs-scalar RS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import math

from repro.core.messages import AuditRequest, SignedTranscript, batch_root_message
from repro.crypto.mac import mac_verify, mac_verify_many
from repro.crypto.schnorr import SchnorrPublicKey, schnorr_verify, schnorr_verify_many
from repro.errors import ProtocolError
from repro.por.merkle import MerkleTree
from repro.util.serialization import (
    decode_float,
    decode_uint,
    decode_uint_list,
    encode_float,
    encode_uint,
    encode_uint_list,
)
from repro.geo.regions import Region
from repro.por.parameters import PORParams


@dataclass(frozen=True, slots=True)
class GeoProofVerdict:
    """Outcome of the four-step TPA verification."""

    accepted: bool
    signature_ok: bool
    position_ok: bool
    macs_ok: bool
    timing_ok: bool
    challenge_ok: bool
    max_rtt_ms: float
    rtt_max_ms: float
    bad_mac_indices: tuple[int, ...] = field(default=())

    @property
    def failure_reasons(self) -> list[str]:
        """Machine-readable tags for every failed check."""
        reasons = []
        if not self.signature_ok:
            reasons.append("signature")
        if not self.position_ok:
            reasons.append("gps")
        if not self.macs_ok:
            reasons.append("mac")
        if not self.timing_ok:
            reasons.append("timing")
        if not self.challenge_ok:
            reasons.append("challenge")
        return reasons

    def to_wire(self) -> bytes:
        """Canonical wire encoding (the daemon's verdict reply body)."""
        flags = (
            (self.signature_ok << 0)
            | (self.position_ok << 1)
            | (self.macs_ok << 2)
            | (self.timing_ok << 3)
            | (self.challenge_ok << 4)
        )
        return (
            encode_uint(flags)
            + encode_float(self.max_rtt_ms)
            + encode_float(self.rtt_max_ms)
            + encode_uint_list(list(self.bad_mac_indices))
        )

    @classmethod
    def from_wire(
        cls, data: bytes, offset: int = 0
    ) -> tuple["GeoProofVerdict", int]:
        """Parse a verdict; inconsistent flag sets fail closed.

        ``accepted`` is not carried on the wire -- it is recomputed as
        the conjunction of the five checks, so a corrupted frame can
        never claim acceptance while reporting a failed check.
        """
        flags, offset = decode_uint(data, offset)
        if flags >= 1 << 5:
            raise ProtocolError(f"unknown verdict flags: {flags:#x}")
        max_rtt_ms, offset = decode_float(data, offset)
        rtt_max_ms, offset = decode_float(data, offset)
        if not (math.isfinite(max_rtt_ms) and math.isfinite(rtt_max_ms)):
            raise ProtocolError("non-finite timing in verdict")
        bad_macs, offset = decode_uint_list(data, offset)
        macs_ok = bool(flags & 4)
        if macs_ok and bad_macs:
            raise ProtocolError("verdict claims macs_ok but lists bad MACs")
        checks = (
            bool(flags & 1),
            bool(flags & 2),
            macs_ok,
            bool(flags & 8),
            bool(flags & 16),
        )
        return (
            cls(
                accepted=all(checks),
                signature_ok=checks[0],
                position_ok=checks[1],
                macs_ok=macs_ok,
                timing_ok=checks[3],
                challenge_ok=checks[4],
                max_rtt_ms=max_rtt_ms,
                rtt_max_ms=rtt_max_ms,
                bad_mac_indices=tuple(bad_macs),
            ),
            offset,
        )


def _signed_root(transcript: SignedTranscript) -> tuple[bytes, tuple[int, int]] | None:
    """The (root message, signature) that must verify for this transcript.

    ``None`` when the transcript's payload does not lead through its
    path to its claimed root, or when the proof or signature is
    malformed -- never an exception, so a malformed transcript is just
    ``signature_ok=False``.  The pair is hashable: the batch plane
    groups transcripts on it.
    """
    proof = transcript.proof
    try:
        if not (
            0 <= proof.leaf_index < proof.n_leaves
            and MerkleTree.verify_proof(
                proof.root,
                transcript.signed_payload(),
                proof.leaf_index,
                proof.path,
            )
        ):
            return None
        signed = (
            batch_root_message(proof.root, proof.n_leaves),
            transcript.signature,
        )
        hash(signed)
    except (AttributeError, TypeError, ValueError, OverflowError):
        return None
    return signed


def verify_transcript(
    transcript: SignedTranscript,
    request: AuditRequest,
    *,
    verifier_public_key: SchnorrPublicKey,
    mac_key: bytes,
    params: PORParams,
    region: Region,
    rtt_max_ms: float,
) -> GeoProofVerdict:
    """Run the TPA's four checks plus request-consistency checks.

    Beyond the paper's four steps, the transcript must also be
    *responsive*: same file id, same nonce (freshness), exactly ``k``
    rounds over distinct indices in range.  Without those checks a
    provider could replay an old transcript or answer fewer/different
    indices than challenged.
    """
    # Step 1: the payload's path to its batch root, and the device's
    # signature over that root.
    signed = _signed_root(transcript)
    signature_ok = signed is not None and schnorr_verify(
        verifier_public_key, *signed
    )

    # Step 2: GPS position within the SLA region.
    position_ok = region.contains(transcript.position)

    # Request consistency / freshness.
    indices = transcript.challenge_indices()
    challenge_ok = (
        transcript.file_id == request.file_id
        and transcript.nonce == request.nonce
        and len(indices) == request.k
        and len(set(indices)) == len(indices)
        and all(0 <= index < request.n_segments for index in indices)
    )

    # Step 3: every segment's MAC tag.
    bad_macs: list[int] = []
    for round_ in transcript.rounds:
        segment = round_.segment
        tag_ok = segment.index == round_.index and mac_verify(
            mac_key,
            segment.payload,
            round_.index,
            transcript.file_id,
            segment.tag,
            tag_bits=params.tag_bits,
        )
        if not tag_ok:
            bad_macs.append(round_.index)
    macs_ok = not bad_macs

    # Step 4: max round time within the calibrated budget, and finite.
    max_rtt_ms_observed = transcript.max_rtt_ms
    timing_ok = (
        math.isfinite(max_rtt_ms_observed) and max_rtt_ms_observed <= rtt_max_ms
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
        max_rtt_ms=max_rtt_ms_observed,
        rtt_max_ms=rtt_max_ms,
        bad_mac_indices=tuple(bad_macs),
    )


@dataclass(frozen=True, slots=True)
class TranscriptVerification:
    """One pending verification job for :func:`verify_transcripts`.

    Bundles exactly the arguments of :func:`verify_transcript`; the MAC
    key is hidden from the repr because verdict batches end up in logs
    and failure output (CRY003).
    """

    transcript: SignedTranscript
    request: AuditRequest
    verifier_public_key: SchnorrPublicKey
    mac_key: bytes = field(repr=False)
    params: PORParams
    region: Region
    rtt_max_ms: float


def verify_transcripts(
    jobs: Sequence[TranscriptVerification],
) -> list[GeoProofVerdict]:
    """Verify a batch of transcripts; one verdict per job, in order.

    Byte-identical to ``[verify_transcript(job...) for job in jobs]``
    (pinned by test): the cheap checks (position, freshness, timing)
    stay scalar, while the two expensive checks amortize --

    * all rounds sharing a (mac_key, file_id, tag_bits) triple are
      recomputed through one :func:`mac_verify_many` call (one HMAC
      key schedule per group instead of one per round);
    * each transcript's path is checked on its own, and each distinct
      (root message, signature) pair is verified once: all pairs
      sharing a verifier key go through one :func:`schnorr_verify_many`
      call (culprits isolated by bisection on failure).  A job's
      ``signature_ok`` is its own path check and its pair's verdict.

    Rounds whose echoed segment index contradicts the round index are
    marked bad without touching the MAC batch, exactly like the scalar
    path's short-circuiting ``and``.
    """
    # --- Schnorr: paths per job, then one batch per verifier key over
    # its distinct signed roots, first-appearance order throughout.
    signature_oks = [False] * len(jobs)
    by_key: dict[
        SchnorrPublicKey, dict[tuple[bytes, tuple[int, int]], list[int]]
    ] = {}
    for position, job in enumerate(jobs):
        signed = _signed_root(job.transcript)
        if signed is not None:
            by_key.setdefault(job.verifier_public_key, {}).setdefault(
                signed, []
            ).append(position)
    for public_key, by_root in by_key.items():
        verdicts = schnorr_verify_many(
            public_key,
            [message for message, _ in by_root],
            [signature for _, signature in by_root],
        )
        for positions, ok in zip(by_root.values(), verdicts):
            for position in positions:
                signature_oks[position] = ok

    # --- MACs: flatten every round into one batch per key/file/width.
    # round_oks[j] holds job j's per-round tag verdicts in round order;
    # index-mismatched rounds are bad by definition and never reach the
    # MAC recomputation.
    round_oks: list[list[bool]] = []
    by_mac: dict[tuple[bytes, bytes, int], list[tuple[int, int]]] = {}
    for position, job in enumerate(jobs):
        round_oks.append([False] * len(job.transcript.rounds))
        group_key = (job.mac_key, job.transcript.file_id, job.params.tag_bits)
        entries = by_mac.setdefault(group_key, [])
        for round_position, round_ in enumerate(job.transcript.rounds):
            if round_.segment.index == round_.index:
                entries.append((position, round_position))
    for (mac_key, file_id, tag_bits), entries in by_mac.items():
        if not entries:
            continue
        # Audits re-challenge the same stored segments, so batches are
        # full of repeats; identical (index, payload, tag) triples share
        # one recomputation.  The recomputed tag is a pure function of
        # the triple (plus the group key), so deduplication cannot
        # change any verdict.
        slot_of: dict[tuple[int, bytes, bytes], int] = {}
        unique_rounds: list = []
        membership: list[int] = []
        for position, round_position in entries:
            round_ = jobs[position].transcript.rounds[round_position]
            triple = (round_.index, round_.segment.payload, round_.segment.tag)
            slot = slot_of.get(triple)
            if slot is None:
                slot = len(unique_rounds)
                slot_of[triple] = slot
                unique_rounds.append(round_)
            membership.append(slot)
        tag_oks = mac_verify_many(
            mac_key,
            [round_.segment.payload for round_ in unique_rounds],
            [round_.segment.tag for round_ in unique_rounds],
            file_id,
            indices=[round_.index for round_ in unique_rounds],
            tag_bits=tag_bits,
        )
        for (position, round_position), slot in zip(entries, membership):
            round_oks[position][round_position] = tag_oks[slot]

    # --- Assemble verdicts in input order.
    out: list[GeoProofVerdict] = []
    for position, job in enumerate(jobs):
        transcript, request = job.transcript, job.request
        position_ok = job.region.contains(transcript.position)
        indices = transcript.challenge_indices()
        challenge_ok = (
            transcript.file_id == request.file_id
            and transcript.nonce == request.nonce
            and len(indices) == request.k
            and len(set(indices)) == len(indices)
            and all(0 <= index < request.n_segments for index in indices)
        )
        bad_macs = [
            round_.index
            for round_, tag_ok in zip(transcript.rounds, round_oks[position])
            if not tag_ok
        ]
        max_rtt_ms_observed = transcript.max_rtt_ms
        timing_ok = (
            math.isfinite(max_rtt_ms_observed)
            and max_rtt_ms_observed <= job.rtt_max_ms
        )
        signature_ok = signature_oks[position]
        macs_ok = not bad_macs
        out.append(
            GeoProofVerdict(
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
                max_rtt_ms=max_rtt_ms_observed,
                rtt_max_ms=job.rtt_max_ms,
                bad_mac_indices=tuple(bad_macs),
            )
        )
    return out
