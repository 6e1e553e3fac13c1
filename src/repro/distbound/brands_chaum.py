"""The Brands-Chaum distance-bounding protocol (EUROCRYPT'93).

The first distance-bounding protocol, designed against mafia fraud:

1. the prover commits to a random bit string ``m`` (commitment
   ``C = H(m, opening)``);
2. timed phase: verifier sends random bits ``c_i``; prover instantly
   replies ``r_i = c_i XOR m_i``;
3. the prover opens the commitment and signs the transcript
   ``(c_1, r_1, ..., c_n, r_n)``; the verifier checks commitment,
   signature, bits and times.

Against an adversary who guesses challenges in advance, each round
succeeds with probability 1/2, so false acceptance is ``(1/2)^n``
(stronger per-round than Hancke-Kuhn's 3/4, at the cost of the
commitment and signature machinery).
"""

from __future__ import annotations

import hashlib

from repro.crypto.rng import DeterministicRNG
from repro.crypto.schnorr import (
    SchnorrKeyPair,
    schnorr_sign,
    schnorr_verify,
)
from repro.distbound.base import (
    DistanceBoundingResult,
    TimedChannel,
    Transcript,
    run_timed_phase,
    verdict,
)
from repro.errors import ConfigurationError
from repro.util.bitops import bit_at, ceil_div


def _commit(message: bytes, opening: bytes) -> bytes:
    """A hash commitment ``C = H(m || opening)``."""
    return hashlib.sha256(b"bc-commit" + message + opening).digest()


class BrandsChaumProver:
    """The prover: commits, answers XOR bits, signs the transcript."""

    def __init__(self, identity: bytes, keypair: SchnorrKeyPair) -> None:
        self.identity = identity
        self.keypair = keypair
        self._bits: bytes | None = None
        self._opening: bytes | None = None
        self._round = 0
        self._rounds_log: list[tuple[int, int]] = []

    def begin_session(self, n_rounds: int, rng: DeterministicRNG) -> bytes:
        """Choose ``m``, return the commitment."""
        if n_rounds <= 0:
            raise ConfigurationError(f"n_rounds must be positive, got {n_rounds}")
        self._bits = rng.random_bytes(ceil_div(n_rounds, 8))
        self._opening = rng.random_bytes(16)
        self._round = 0
        self._rounds_log = []
        return _commit(self._bits, self._opening)

    def respond(self, challenge_bit: int) -> tuple[int, float]:
        """Timed responder: ``r_i = c_i XOR m_i``."""
        if self._bits is None:
            raise ConfigurationError("begin_session() must run first")
        bit = challenge_bit ^ bit_at(self._bits, self._round)
        self._rounds_log.append((challenge_bit, bit))
        self._round += 1
        return bit, 0.0

    def finish_session(self) -> tuple[bytes, bytes, tuple[int, int]]:
        """Open the commitment and sign the round log."""
        if self._bits is None or self._opening is None:
            raise ConfigurationError("no session in progress")
        message = b"".join(
            bytes([challenge, response]) for challenge, response in self._rounds_log
        )
        signature = schnorr_sign(self.keypair.private, b"bc-transcript" + message)
        return self._bits, self._opening, signature


class BrandsChaumVerifier:
    """The verifier: times rounds, checks commitment + signature + bits."""

    def __init__(
        self,
        identity: bytes,
        prover_public_key,
        *,
        n_rounds: int = 32,
        rtt_max_ms: float = 1.0,
    ) -> None:
        if n_rounds <= 0:
            raise ConfigurationError(f"n_rounds must be positive, got {n_rounds}")
        self.identity = identity
        self.prover_public_key = prover_public_key
        self.n_rounds = n_rounds
        self.rtt_max_ms = rtt_max_ms

    def run(
        self,
        prover,
        channel: TimedChannel,
        rng: DeterministicRNG,
    ) -> DistanceBoundingResult:
        """Run a full Brands-Chaum session."""
        commitment = prover.begin_session(self.n_rounds, rng.fork("prover"))
        transcript = Transcript(
            protocol="brands-chaum",
            verifier_id=self.identity,
            prover_id=prover.identity,
            verifier_nonce=b"",
            prover_nonce=commitment,  # the commitment plays the nonce role
        )
        challenges = [rng.randbits(1) for _ in range(self.n_rounds)]
        run_timed_phase(channel, challenges, prover.respond, transcript)
        bits, opening, signature = prover.finish_session()

        commitment_ok = _commit(bits, opening) == commitment
        message = b"".join(
            bytes([record.challenge_bit, record.response_bit])
            for record in transcript.rounds
        )
        signature_ok = schnorr_verify(
            self.prover_public_key, b"bc-transcript" + message, signature
        )

        def expected_bit(round_index: int, challenge_bit: int) -> int:
            return challenge_bit ^ bit_at(bits, round_index)

        result = verdict(transcript, expected_bit, self.rtt_max_ms)
        if not (commitment_ok and signature_ok):
            # Commitment/signature failure voids the session outright.
            result = DistanceBoundingResult(
                accepted=False,
                bits_ok=result.bits_ok and commitment_ok,
                timing_ok=result.timing_ok,
                n_rounds=result.n_rounds,
                n_bit_errors=result.n_bit_errors,
                n_timing_violations=result.n_timing_violations,
                max_rtt_ms=result.max_rtt_ms,
                implied_distance_km=result.implied_distance_km,
                transcript=transcript,
            )
        return result
