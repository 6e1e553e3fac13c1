"""The Hancke-Kuhn distance-bounding protocol (Fig. 2).

Initialisation: prover and verifier share secret ``s``; they exchange
nonces ``r_A`` (verifier) and ``r_B`` (prover) and compute
``d = h(s, r_A || r_B)``, split into two n-bit registers ``l`` and
``r``.

Timed phase: for round ``i`` the verifier sends bit ``alpha_i``; the
prover answers with ``l[i]`` if ``alpha_i = 0`` else ``r[i]``.

An adversary without ``s`` answers each round correctly with
probability 3/4 (it can pre-ask the prover with a guessed challenge:
right guess -> correct bit, wrong guess -> coin flip), so the
false-acceptance probability is ``(3/4)^n`` -- reproduced empirically
by the attack benches.
"""

from __future__ import annotations

from repro.crypto.prf import prf_stream
from repro.distbound.base import (
    DistanceBoundingResult,
    TimedChannel,
    Transcript,
    run_timed_phase,
    verdict,
)
from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError
from repro.util.bitops import bit_at, ceil_div, split_in_half


def derive_registers(
    shared_secret: bytes, verifier_nonce: bytes, prover_nonce: bytes, n_rounds: int
) -> tuple[bytes, bytes]:
    """Derive the two response registers ``(l, r)`` for a session."""
    if n_rounds <= 0:
        raise ConfigurationError(f"n_rounds must be positive, got {n_rounds}")
    register_bytes = ceil_div(n_rounds, 8)
    stream = prf_stream(
        shared_secret,
        b"hancke-kuhn-registers",
        verifier_nonce + prover_nonce,
        2 * register_bytes,
    )
    return split_in_half(stream)


class HanckeKuhnProver:
    """The prover P: holds the shared secret, answers register bits."""

    def __init__(self, identity: bytes, shared_secret: bytes) -> None:
        self.identity = identity
        self._secret = shared_secret
        self._left: bytes | None = None
        self._right: bytes | None = None
        self._round = 0

    def begin_session(
        self, verifier_nonce: bytes, prover_nonce: bytes, n_rounds: int
    ) -> None:
        """Initialisation phase: derive this session's registers."""
        self._left, self._right = derive_registers(
            self._secret, verifier_nonce, prover_nonce, n_rounds
        )
        self._round = 0

    def respond(self, challenge_bit: int) -> tuple[int, float]:
        """Timed-phase responder: register bit plus processing delay."""
        if self._left is None or self._right is None:
            raise ConfigurationError("begin_session() must run first")
        register = self._left if challenge_bit == 0 else self._right
        bit = bit_at(register, self._round)
        self._round += 1
        return bit, 0.0


class HanckeKuhnVerifier:
    """The verifier V: drives the session and renders the verdict."""

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
        """Run a full session against any object with the prover API.

        ``prover`` needs ``identity``, ``begin_session()`` and
        ``respond()`` -- honest provers and the attack simulators both
        satisfy it.
        """
        verifier_nonce = rng.random_bytes(16)
        prover_nonce = rng.random_bytes(16)
        prover.begin_session(verifier_nonce, prover_nonce, self.n_rounds)
        left, right = derive_registers(
            self._secret, verifier_nonce, prover_nonce, self.n_rounds
        )
        transcript = Transcript(
            protocol="hancke-kuhn",
            verifier_id=self.identity,
            prover_id=prover.identity,
            verifier_nonce=verifier_nonce,
            prover_nonce=prover_nonce,
        )
        challenges = [rng.randbits(1) for _ in range(self.n_rounds)]
        run_timed_phase(channel, challenges, prover.respond, transcript)

        def expected_bit(round_index: int, challenge_bit: int) -> int:
            register = left if challenge_bit == 0 else right
            return bit_at(register, round_index)

        return verdict(transcript, expected_bit, self.rtt_max_ms)
