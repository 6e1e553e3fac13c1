"""GeoProof over dynamic data (the paper's Section IV extension).

"The Juels and Kaliski scheme is designed to deal with the static data
but GeoProof could be modified to encompass other POS schemes that
support verifying dynamic data such as dynamic proof of retrievability
(DPOR) by Wang et al."

This module performs that modification: the timed challenge/response
rounds carry *dynamic POR proofs* (block + content tag + Merkle path)
instead of MACed segments.  Everything else keeps the GeoProof shape --
the verifier device times each round against the LAN + disk budget and
signs the transcript; the TPA checks signature, GPS, proof validity and
max RTT.

The interesting systems consequence, quantified in the bench: a dynamic
round's payload grows by ``32 * log2(n)`` bytes of Merkle path, so the
response transfer term -- and therefore Delta-t_max -- depends on file
size, where the static scheme's 660-bit segments did not.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.sla import SLAPolicy
from repro.core.calibration import TimingBudget
from repro.crypto.rng import DeterministicRNG
from repro.crypto.schnorr import (
    SchnorrKeyPair,
    SchnorrPublicKey,
    schnorr_sign,
    schnorr_verify,
)
from repro.errors import ConfigurationError
from repro.geo.coords import GeoPoint
from repro.geo.regions import Region
from repro.netsim.clock import SimClock
from repro.netsim.latency import LANModel
from repro.por.dynamic import DynamicPOR, DynamicPORServer, DynamicProof
from repro.storage.hdd import HDDModel, HDDSpec, WD_2500JD
from repro.util.serialization import (
    encode_float,
    encode_length_prefixed,
    encode_uint,
)


@dataclass(frozen=True)
class DynamicTimedRound:
    """One timed round: challenged index, dynamic proof, measured RTT."""

    index: int
    proof: DynamicProof
    rtt_ms: float

    @property
    def payload_bytes(self) -> int:
        """Response size on the wire: block + tag + Merkle path."""
        return (
            len(self.proof.block)
            + len(self.proof.tag)
            + sum(len(sibling) + 1 for sibling, _ in self.proof.path)
        )

    def wire_bytes(self) -> bytes:
        """Canonical encoding for the signed transcript."""
        parts = [
            encode_uint(self.index),
            encode_length_prefixed(self.proof.block),
            encode_length_prefixed(self.proof.tag),
            encode_uint(len(self.proof.path)),
        ]
        for sibling, is_right in self.proof.path:
            parts.append(encode_length_prefixed(sibling))
            parts.append(b"\x01" if is_right else b"\x00")
        parts.append(encode_float(self.rtt_ms))
        return b"".join(parts)


@dataclass(frozen=True)
class DynamicTranscript:
    """The verifier's signed report for a dynamic audit."""

    device_id: bytes
    file_id: bytes
    nonce: bytes
    rounds: tuple[DynamicTimedRound, ...]
    position: GeoPoint
    signature: tuple[int, int]

    @property
    def max_rtt_ms(self) -> float:
        """Delta-t' = max over the rounds."""
        if not self.rounds:
            raise ConfigurationError("transcript has no rounds")
        return max(round_.rtt_ms for round_ in self.rounds)

    def signed_payload(self) -> bytes:
        """Canonical bytes the device signs."""
        parts = [
            b"geoproof-dynamic-transcript-v1",
            encode_length_prefixed(self.device_id),
            encode_length_prefixed(self.file_id),
            encode_length_prefixed(self.nonce),
            encode_uint(len(self.rounds)),
        ]
        parts.extend(round_.wire_bytes() for round_ in self.rounds)
        parts.append(encode_float(self.position.latitude))
        parts.append(encode_float(self.position.longitude))
        return b"".join(parts)


@dataclass(frozen=True)
class DynamicVerdict:
    """TPA verdict: the four GeoProof checks over dynamic proofs."""

    accepted: bool
    signature_ok: bool
    position_ok: bool
    proofs_ok: bool
    timing_ok: bool
    max_rtt_ms: float
    rtt_max_ms: float
    bad_indices: tuple[int, ...]

    @property
    def failure_reasons(self) -> list[str]:
        """Machine-readable failure tags."""
        reasons = []
        if not self.signature_ok:
            reasons.append("signature")
        if not self.position_ok:
            reasons.append("gps")
        if not self.proofs_ok:
            reasons.append("proof")
        if not self.timing_ok:
            reasons.append("timing")
        return reasons


def dynamic_rtt_budget(
    n_blocks: int,
    block_bytes: int,
    *,
    disk: HDDSpec = WD_2500JD,
    lan: LANModel | None = None,
    lan_distance_km: float = 0.05,
) -> TimingBudget:
    """Calibrate Delta-t_max for dynamic rounds.

    Unlike the static scheme, the response payload includes a Merkle
    path of ~32 bytes per tree level, so the serialisation term scales
    with log2(n_blocks).  The LAN budget is the paper's 3 ms.
    """
    if n_blocks <= 0:
        raise ConfigurationError(f"n_blocks must be positive, got {n_blocks}")
    lan = lan or LANModel()
    path_levels = max(1, (n_blocks - 1).bit_length())
    payload = block_bytes + 16 + 33 * path_levels
    lookup = HDDModel(disk).lookup_ms(block_bytes)
    serialisation = lan.one_way_ms(lan_distance_km, payload) - lan.one_way_ms(
        lan_distance_km, 0
    )
    return TimingBudget(
        lan_rtt_ms=3.0 + serialisation,
        lookup_ms=lookup,
        margin_ms=0.0,
    )


class DynamicGeoProofSession:
    """A GeoProof deployment whose POS layer is the dynamic POR."""

    def __init__(
        self,
        *,
        datacentre_location: GeoPoint,
        region: Region,
        block_bytes: int = 4096,
        seed: str = "dynamic-geoproof",
    ) -> None:
        if block_bytes <= 0:
            raise ConfigurationError(
                f"block_bytes must be positive, got {block_bytes}"
            )
        self.location = datacentre_location
        self.region = region
        self.block_bytes = block_bytes
        self.disk = HDDModel(WD_2500JD)
        self.clock = SimClock()
        self.lan = LANModel()
        self.lan_distance_km = 0.05
        self._rng = DeterministicRNG(seed)
        # Stateful nonce stream: every audit must get a fresh nonce
        # (and therefore a fresh challenge set).
        self._nonce_rng = self._rng.fork("nonce-stream")
        self.device_keypair = SchnorrKeyPair.generate(
            seed=f"{seed}-device".encode()
        )
        self.client: DynamicPOR | None = None
        self.server: DynamicPORServer | None = None
        self.file_id: bytes | None = None
        #: Extra per-round delay injected provider-side (relay attacks).
        self.injected_delay_ms = 0.0

    @property
    def device_public_key(self) -> SchnorrPublicKey:
        """The verifier device's public key."""
        return self.device_keypair.public

    # -- data-owner operations ----------------------------------------------

    def outsource(self, file_id: bytes, data: bytes) -> int:
        """Split ``data`` into blocks, tag, build the Merkle tree."""
        if self.client is not None:
            raise ConfigurationError("session already holds a file")
        blocks = [
            data[start : start + self.block_bytes].ljust(self.block_bytes, b"\x00")
            for start in range(0, max(len(data), 1), self.block_bytes)
        ]
        mac_key = self._rng.fork("mac-key").random_bytes(32)
        self.client = DynamicPOR(mac_key, file_id)
        self.server = self.client.outsource(blocks)
        self.file_id = file_id
        return len(blocks)

    def update_block(self, index: int, new_block: bytes) -> None:
        """Authenticated in-place update (the dynamic operation)."""
        self._require_file()
        if len(new_block) != self.block_bytes:
            raise ConfigurationError(
                f"block must be {self.block_bytes} bytes, got {len(new_block)}"
            )
        self.client.update_block(self.server, index, new_block)

    # -- the timed audit -------------------------------------------------------

    def _require_file(self) -> None:
        if self.client is None or self.server is None:
            raise ConfigurationError("outsource() must run first")

    def rtt_budget(self) -> TimingBudget:
        """The calibrated per-round budget for the current file."""
        self._require_file()
        return dynamic_rtt_budget(
            self.client.n_blocks,
            self.block_bytes,
            disk=self.disk.spec,
            lan=self.lan,
            lan_distance_km=self.lan_distance_km,
        )

    def run_audit(self, k: int) -> tuple[DynamicTranscript, DynamicVerdict]:
        """One full dynamic GeoProof audit: timed rounds + verification."""
        self._require_file()
        nonce = self._nonce_rng.random_bytes(16)
        challenge_rng = self._rng.fork(f"challenge-{nonce.hex()}")
        indices = self.client.make_challenge(
            min(k, self.client.n_blocks), challenge_rng
        )
        jitter_rng = self._rng.fork(f"jitter-{nonce.hex()}")
        rounds: list[DynamicTimedRound] = []
        for index in indices:
            start = self.clock.now_ms()
            self.clock.advance(
                self.lan.one_way_ms(self.lan_distance_km, 16, jitter_rng)
            )
            proof = self.server.prove(index)
            # Disk time for the block; the tree's upper levels are hot
            # in RAM on any real server, so only the leaf block seeks.
            self.clock.advance(self.disk.lookup_ms(self.block_bytes))
            self.clock.advance(self.injected_delay_ms)
            round_ = DynamicTimedRound(index=index, proof=proof, rtt_ms=0.0)
            self.clock.advance(
                self.lan.one_way_ms(
                    self.lan_distance_km, round_.payload_bytes, jitter_rng
                )
            )
            rounds.append(
                DynamicTimedRound(
                    index=index, proof=proof, rtt_ms=self.clock.now_ms() - start
                )
            )
        transcript = DynamicTranscript(
            device_id=b"dynamic-verifier",
            file_id=self.file_id,
            nonce=nonce,
            rounds=tuple(rounds),
            position=self.location,
            signature=(0, 0),
        )
        signature = schnorr_sign(
            self.device_keypair.private, transcript.signed_payload()
        )
        transcript = DynamicTranscript(
            device_id=transcript.device_id,
            file_id=transcript.file_id,
            nonce=transcript.nonce,
            rounds=transcript.rounds,
            position=transcript.position,
            signature=signature,
        )
        verdict = self.verify(transcript)
        return transcript, verdict

    def verify(
        self, transcript: DynamicTranscript
    ) -> DynamicVerdict:
        """The TPA's four checks over a dynamic transcript."""
        self._require_file()
        signature_ok = schnorr_verify(
            self.device_public_key,
            transcript.signed_payload(),
            transcript.signature,
        )
        position_ok = self.region.contains(transcript.position)
        bad = tuple(
            round_.index
            for round_ in transcript.rounds
            if not self.client.verify(round_.proof)
            or round_.proof.index != round_.index
        )
        budget = self.rtt_budget()
        max_rtt_ms = transcript.max_rtt_ms
        timing_ok = max_rtt_ms <= budget.rtt_max_ms
        proofs_ok = not bad
        return DynamicVerdict(
            accepted=signature_ok and position_ok and proofs_ok and timing_ok,
            signature_ok=signature_ok,
            position_ok=position_ok,
            proofs_ok=proofs_ok,
            timing_ok=timing_ok,
            max_rtt_ms=max_rtt_ms,
            rtt_max_ms=budget.rtt_max_ms,
            bad_indices=bad,
        )
