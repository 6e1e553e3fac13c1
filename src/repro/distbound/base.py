"""Shared distance-bounding framework (the Fig. 1 abstraction).

Every protocol in this package has the same shape:

1. an *initialisation phase* (not time critical): exchange identities
   and nonces, derive per-session bit registers;
2. a *distance-bounding phase* (time critical): ``j`` single-bit
   challenge/response rounds, each individually timed;
3. a *verification*: every response bit must be correct and every
   round-trip time must satisfy ``rtt <= rtt_max``.

The framework fixes the transcript format and the verdict logic;
concrete protocols supply the register derivation and the expected-bit
function.  Timing runs on a :class:`~repro.netsim.clock.SimClock` and a
:class:`~repro.netsim.latency.LatencyModel` channel, so the *simulated*
geometry (how far the prover really is) determines the verdict exactly
as physics would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.netsim.clock import SimClock
from repro.netsim.latency import LatencyModel, SPEED_OF_LIGHT_KM_PER_MS


def rtt_to_distance_km(
    rtt_ms: float, propagation_speed_km_per_ms: float = SPEED_OF_LIGHT_KM_PER_MS
) -> float:
    """Distance bound implied by an RTT: ``speed * rtt / 2``."""
    if rtt_ms < 0:
        raise ConfigurationError(f"rtt must be >= 0, got {rtt_ms}")
    return propagation_speed_km_per_ms * rtt_ms / 2.0


@dataclass(frozen=True)
class RoundRecord:
    """One timed round: challenge bit, response bit, measured RTT."""

    round_index: int
    challenge_bit: int
    response_bit: int
    rtt_ms: float


@dataclass
class Transcript:
    """Everything the verifier saw: init data plus all timed rounds."""

    protocol: str
    verifier_id: bytes
    prover_id: bytes
    verifier_nonce: bytes
    prover_nonce: bytes
    rounds: list[RoundRecord] = field(default_factory=list)

    @property
    def n_rounds(self) -> int:
        """Number of completed timed rounds."""
        return len(self.rounds)

    @property
    def max_rtt_ms(self) -> float:
        """The slowest round (what the timing check gates on)."""
        if not self.rounds:
            raise ConfigurationError("transcript has no rounds")
        return max(record.rtt_ms for record in self.rounds)


@dataclass(frozen=True)
class DistanceBoundingResult:
    """The verifier's verdict.

    ``accepted`` requires *both* all bits correct and all rounds within
    the time bound; the component flags support failure analysis.
    """

    accepted: bool
    bits_ok: bool
    timing_ok: bool
    n_rounds: int
    n_bit_errors: int
    n_timing_violations: int
    max_rtt_ms: float
    implied_distance_km: float
    transcript: Transcript


class TimedChannel:
    """The timed wire between verifier and prover.

    Wraps a latency model, a simulated clock, and the true
    verifier-prover distance.  ``exchange()`` performs one round:
    advance the clock for the outbound flight, let the prover compute
    (costing ``processing_ms``), advance for the return flight, and
    report the measured RTT.
    """

    def __init__(
        self,
        clock: SimClock,
        latency_model: LatencyModel,
        distance_km: float,
    ) -> None:
        if distance_km < 0:
            raise ConfigurationError(
                f"distance must be >= 0, got {distance_km}"
            )
        self.clock = clock
        self.latency_model = latency_model
        self.distance_km = distance_km

    def exchange(
        self,
        respond,  # Callable[[int], tuple[int, float]]: bit -> (bit, processing_ms)
        challenge_bit: int,
    ) -> tuple[int, float]:
        """Run one timed round of one-byte messages.

        Returns ``(response_bit, measured_rtt_ms)``.
        """
        start = self.clock.now_ms()
        self.clock.advance(
            self.latency_model.one_way_ms(self.distance_km, 1)
        )
        response_bit, processing_ms = respond(challenge_bit)
        if processing_ms < 0:
            raise ConfigurationError(
                f"processing time must be >= 0, got {processing_ms}"
            )
        self.clock.advance(processing_ms)
        self.clock.advance(
            self.latency_model.one_way_ms(self.distance_km, 1)
        )
        return response_bit, self.clock.now_ms() - start


def run_timed_phase(
    channel: TimedChannel,
    challenges: list[int],
    respond,
    transcript: Transcript,
) -> None:
    """Run the full timed phase, appending a record per round."""
    for i, challenge_bit in enumerate(challenges):
        if challenge_bit not in (0, 1):
            raise ConfigurationError(f"challenge bit {challenge_bit!r} not 0/1")
        response_bit, rtt_ms = channel.exchange(respond, challenge_bit)
        transcript.rounds.append(
            RoundRecord(
                round_index=i,
                challenge_bit=challenge_bit,
                response_bit=response_bit,
                rtt_ms=rtt_ms,
            )
        )


def verdict(
    transcript: Transcript,
    expected_bit,  # Callable[[int, int], int]: (round, challenge) -> bit
    rtt_max_ms: float,
) -> DistanceBoundingResult:
    """Apply the standard accept rule to a finished transcript."""
    if rtt_max_ms <= 0:
        raise ConfigurationError(f"rtt_max must be > 0, got {rtt_max_ms}")
    n_bit_errors = 0
    n_timing_violations = 0
    for record in transcript.rounds:
        if record.response_bit != expected_bit(
            record.round_index, record.challenge_bit
        ):
            n_bit_errors += 1
        if record.rtt_ms > rtt_max_ms:
            n_timing_violations += 1
    bits_ok = n_bit_errors == 0
    timing_ok = n_timing_violations == 0
    max_rtt_ms_observed = transcript.max_rtt_ms
    return DistanceBoundingResult(
        accepted=bits_ok and timing_ok,
        bits_ok=bits_ok,
        timing_ok=timing_ok,
        n_rounds=transcript.n_rounds,
        n_bit_errors=n_bit_errors,
        n_timing_violations=n_timing_violations,
        max_rtt_ms=max_rtt_ms_observed,
        implied_distance_km=rtt_to_distance_km(max_rtt_ms_observed),
        transcript=transcript,
    )
