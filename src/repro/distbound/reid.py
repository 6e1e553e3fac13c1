"""The Reid et al. distance-bounding protocol (Fig. 3).

Reid, Gonzalez Nieto, Tang and Senadji hardened Hancke-Kuhn against
the *terrorist attack*: a dishonest prover who helps a nearby
accomplice pass the protocol without handing over the long-term secret.

Changes relative to Hancke-Kuhn:

* identities of both parties are exchanged in the initialisation phase
  and bound into the key derivation:
  ``k = KDF(s, ID_V || ID_P || r_V || r_P)``;
* the response registers are ``c = E_k(s)`` (the encrypted long-term
  secret) and ``k`` itself: answering round ``i`` needs *both* the
  session key and the ciphertext of the secret.

A terrorist prover must now give its accomplice both registers -- but
``c XOR k``-style combination reveals ``s`` (in the original: knowing
both ``k`` and ``c = E_k(s)`` yields the long-term secret), so helping
the accomplice is equivalent to surrendering the credential.  The
attack simulator in :mod:`repro.distbound.attacks` exploits exactly
this structure.
"""

from __future__ import annotations

from repro.crypto.kdf import hkdf
from repro.crypto.prf import prf_stream
from repro.crypto.rng import DeterministicRNG
from repro.distbound.base import (
    DistanceBoundingResult,
    TimedChannel,
    Transcript,
    run_timed_phase,
    verdict,
)
from repro.errors import ConfigurationError
from repro.util.bitops import bit_at, ceil_div, xor_bytes


def derive_session_registers(
    shared_secret: bytes,
    verifier_id: bytes,
    prover_id: bytes,
    verifier_nonce: bytes,
    prover_nonce: bytes,
    n_rounds: int,
) -> tuple[bytes, bytes]:
    """Derive Reid et al.'s registers ``(k, c)`` for one session.

    ``k`` is the session key from the identity-bound KDF; ``c`` is the
    long-term secret encrypted under ``k`` (one-time-pad over a PRF
    stream keyed by ``k`` -- any IND-CPA cipher works, and the XOR
    structure makes the terrorist trade-off explicit: ``k XOR ... `` of
    the two registers recovers ``s``).
    """
    if n_rounds <= 0:
        raise ConfigurationError(f"n_rounds must be positive, got {n_rounds}")
    register_bytes = ceil_div(n_rounds, 8)
    session_key = hkdf(
        shared_secret,
        salt=b"reid-kdf",
        info=verifier_id + b"|" + prover_id + b"|" + verifier_nonce + prover_nonce,
        length=register_bytes,
    )
    secret_bits = prf_stream(
        shared_secret, b"reid-secret-expand", b"", register_bytes
    )
    pad = prf_stream(session_key, b"reid-encrypt", b"", register_bytes)
    ciphertext = xor_bytes(secret_bits, pad)
    return session_key, ciphertext


class ReidProver:
    """The prover: derives (k, c) and answers register bits."""

    def __init__(self, identity: bytes, shared_secret: bytes) -> None:
        self.identity = identity
        self._secret = shared_secret
        self._key_register: bytes | None = None
        self._cipher_register: bytes | None = None
        self._round = 0

    def begin_session(
        self,
        verifier_id: bytes,
        verifier_nonce: bytes,
        prover_nonce: bytes,
        n_rounds: int,
    ) -> None:
        """Initialisation: derive this session's registers."""
        self._key_register, self._cipher_register = derive_session_registers(
            self._secret,
            verifier_id,
            self.identity,
            verifier_nonce,
            prover_nonce,
            n_rounds,
        )
        self._round = 0

    def respond(self, challenge_bit: int) -> tuple[int, float]:
        """Timed responder: bit of ``c`` when 0, bit of ``k`` when 1."""
        if self._key_register is None or self._cipher_register is None:
            raise ConfigurationError("begin_session() must run first")
        register = (
            self._cipher_register if challenge_bit == 0 else self._key_register
        )
        bit = bit_at(register, self._round)
        self._round += 1
        return bit, 0.0


class ReidVerifier:
    """The verifier: identity-bound Hancke-Kuhn with the (k, c) registers."""

    def __init__(
        self,
        identity: bytes,
        shared_secret: bytes,
        *,
        n_rounds: int = 32,
        rtt_max_ms: float = 1.0,
    ) -> None:
        if n_rounds <= 0:
            raise ConfigurationError(f"n_rounds must be positive, got {n_rounds}")
        self.identity = identity
        self._secret = shared_secret
        self.n_rounds = n_rounds
        self.rtt_max_ms = rtt_max_ms

    def run(
        self,
        prover,
        channel: TimedChannel,
        rng: DeterministicRNG,
    ) -> DistanceBoundingResult:
        """Run a full Reid et al. session."""
        verifier_nonce = rng.random_bytes(16)
        prover_nonce = rng.random_bytes(16)
        prover.begin_session(
            self.identity, verifier_nonce, prover_nonce, self.n_rounds
        )
        key_register, cipher_register = derive_session_registers(
            self._secret,
            self.identity,
            prover.identity,
            verifier_nonce,
            prover_nonce,
            self.n_rounds,
        )
        transcript = Transcript(
            protocol="reid",
            verifier_id=self.identity,
            prover_id=prover.identity,
            verifier_nonce=verifier_nonce,
            prover_nonce=prover_nonce,
        )
        challenges = [rng.randbits(1) for _ in range(self.n_rounds)]
        run_timed_phase(channel, challenges, prover.respond, transcript)

        def expected_bit(round_index: int, challenge_bit: int) -> int:
            register = cipher_register if challenge_bit == 0 else key_register
            return bit_at(register, round_index)

        return verdict(transcript, expected_bit, self.rtt_max_ms)
