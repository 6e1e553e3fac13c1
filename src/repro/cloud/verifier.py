"""The tamper-proof, GPS-enabled verifier device V (Fig. 4).

"A device (GPS enabled to ensure physical location of this device)
will be attached to the local network of the service provider.  We
assume that this device is tamper proof ... The tamper proof device,
which we called the verifier, has a private key which it uses to sign
the transcript of the distance bounding protocol."

The device:

* sits at a fixed location on the provider's LAN (a
  :class:`~repro.netsim.latency.LANModel` away from the data centre);
* on request from the TPA, generates the challenge set ``c``, runs the
  ``k`` timed rounds against the provider, timing each with the shared
  simulated clock;
* reads its GPS fix and signs ``R = (Delta-t*, c, segments, N, Pos_V)``
  with its private key.

Signing is per seal, not per transcript.  :meth:`VerifierDevice.run_audits`
keeps what each run measured under a handle it issues and signs
nothing; :meth:`VerifierDevice.seal` turns a list of those handles
into one :class:`~repro.por.merkle.MerkleTree` over their payloads,
signs :func:`~repro.core.messages.batch_root_message` over its root
once, and gives each transcript that signature plus its own
:class:`~repro.core.messages.BatchProof`.  One tree per seal; the TPA
seals once per verifier per verdict flush.  A handle names a run and
carries no bytes, so the device only ever signs what it measured
itself, and each run is sealed at most once.

The device does *not* know the MAC key and cannot judge segment
correctness -- that separation is deliberate in the paper (the TPA
verifies content; the device only attests timing and position).

:meth:`VerifierDevice.run_audits` is the protocol body every audit
runs through (the TPA sends a one-element batch for a single audit).
It is one loop with one way to time each leg: the LAN model's
draw-free :meth:`~repro.netsim.latency.LANModel.fixed_ms` (memoised
per payload size) plus a sample from one
:meth:`~repro.netsim.latency.LANModel.jitter_draws` read per audit.
Every payload comes from the one encoder,
:func:`~repro.core.messages.transcript_payload`, and every challenge
and jitter stream forks off the device's own RNG, which it must be
given.  Each request fails alone: a
:class:`~repro.errors.ReproError` raised while drawing its challenge
or running its rounds (a backend that cannot serve, say) comes back in
that request's place and gets no handle, so only the runs that
completed can be sealed.  :meth:`VerifierDevice.run_audit` is the
scalar reference oracle: one audit, step by step as Fig. 4 draws it,
one :meth:`~repro.netsim.latency.LANModel.one_way_ms` call per leg,
signed at once as a tree of one.  No production path calls it; the
equivalence tests and benches pin ``run_audits`` plus ``seal``
against it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Sequence

from repro.cloud.provider import CloudProvider
from repro.core.messages import (
    AuditRequest,
    BatchProof,
    SignedTranscript,
    TimedRound,
    batch_root_message,
    transcript_payload,
)
from repro.crypto.rng import DeterministicRNG
from repro.crypto.schnorr import (
    SchnorrKeyPair,
    SchnorrPublicKey,
    schnorr_sign,
    # Unused here, but perfbench/tracing.py patches it by name on this
    # module, so it must stay importable from repro.cloud.verifier.
    schnorr_sign_many,  # noqa: F401
)
from repro.errors import ConfigurationError, ReproError
from repro.geo.coords import GeoPoint
from repro.geo.gps import GPSReceiver
from repro.netsim.clock import SimClock
from repro.netsim.latency import LANModel
from repro.por.merkle import MerkleTree

#: Bytes of one challenge on the wire: the index plus framing.
_REQUEST_BYTES = 16


class _RunHandle:
    """Names one measured, unsealed run; carries no bytes."""

    __slots__ = ("__weakref__",)


#: What a device keeps of one run until it is sealed: file id, nonce,
#: rounds, GPS position and the payload those encode.
_RunBody = tuple[bytes, bytes, tuple[TimedRound, ...], GeoPoint, bytes]


@dataclass(frozen=True, slots=True)
class AuditRun:
    """One measured, unsealed audit plus its timed-phase boundaries.

    :meth:`VerifierDevice.run_audits` returns these.  ``handle`` names
    the run on the device that measured it; pass it to that device's
    :meth:`VerifierDevice.seal` for the signed transcript.  The
    started/finished readings are the ones a caller of the scalar
    :meth:`VerifierDevice.run_audit` oracle reads off the clock around
    each call.
    """

    handle: _RunHandle
    started_ms: float
    finished_ms: float


class VerifierDevice:
    """The verifier appliance on the provider's LAN.

    ``rng`` is the device's own randomness: each audit's challenge and
    LAN-jitter streams fork off it by the request nonce, and its
    signing key comes from its ``"signing-key"`` fork.  The key is the
    secret that makes a transcript worth checking, so it comes from
    material the deployment keeps, never from ``device_id``, which
    every transcript carries in the clear.  Forking does not advance
    the parent stream, so deriving the key moves no challenge or
    jitter draw.  A caller may still swap ``keypair`` after
    construction (the benchmarks install a smaller group's key).

    Runs wait unsigned between :meth:`run_audits` and :meth:`seal`.
    The device holds each one's body only as long as someone holds its
    handle, so a run dropped without a seal takes its body with it.
    """

    def __init__(
        self,
        device_id: bytes,
        location: GeoPoint,
        *,
        rng: DeterministicRNG,
        clock: SimClock | None = None,
    ) -> None:
        self.device_id = device_id
        self.location = location
        self.keypair = SchnorrKeyPair.generate(
            seed=rng.fork("signing-key").random_bytes(32)
        )
        self.gps = GPSReceiver(location)
        self.lan = LANModel()
        self.clock = clock or SimClock()
        #: Cable run between the device and the data centre's servers.
        self.lan_distance_km = 0.05
        self._rng = rng
        self._unsealed: weakref.WeakKeyDictionary[_RunHandle, _RunBody] = (
            weakref.WeakKeyDictionary()
        )

    @property
    def public_key(self) -> SchnorrPublicKey:
        """The key the TPA uses to verify transcripts."""
        return self.keypair.public

    def _sign_batch(
        self, payloads: list[bytes]
    ) -> tuple[list[BatchProof], tuple[int, int]]:
        """One signature over a tree of ``payloads``; one proof per leaf.

        Signs with the key held at call time (a caller may swap
        ``keypair`` after the device is built).
        """
        tree = MerkleTree(payloads)
        root, n_leaves = tree.root, len(payloads)
        signature = schnorr_sign(
            self.keypair.private, batch_root_message(root, n_leaves)
        )
        proofs = [
            BatchProof(root, n_leaves, index, tuple(tree.proof(index)))
            for index in range(n_leaves)
        ]
        return proofs, signature

    # -- the GeoProof protocol, verifier side ------------------------------

    def generate_challenge(
        self, request: AuditRequest, rng: DeterministicRNG
    ) -> list[int]:
        """Draw the random index set ``c = {c_1..c_k}``."""
        if not 0 < request.k <= request.n_segments:
            raise ConfigurationError(
                f"k must be in 1..{request.n_segments}, got {request.k}"
            )
        return rng.sample_indices(request.n_segments, request.k)

    def run_audit(
        self, request: AuditRequest, provider: CloudProvider
    ) -> SignedTranscript:
        """Run the timed phase and return the signed transcript R.

        The scalar reference oracle for :meth:`run_audits`, signed as a
        batch of one.  Per round
        j: send index ``c_j`` over the LAN, the provider produces the
        segment (disk and/or relay time), the response crosses the LAN
        back; ``Delta-t_j`` is the whole round trip as seen by the
        device clock.
        """
        clock = self.clock
        # Fork on the request nonce: every audit must draw a fresh,
        # unpredictable challenge set (a fixed set would let the
        # provider prefetch exactly the challenged segments).
        session_label = request.nonce.hex()
        challenge = self.generate_challenge(
            request, self._rng.fork(f"challenge-{session_label}")
        )
        jitter_rng = self._rng.fork(f"lan-jitter-{session_label}")
        rounds: list[TimedRound] = []
        for index in challenge:
            start_ms = clock.now_ms()
            clock.advance(
                self.lan.one_way_ms(self.lan_distance_km, _REQUEST_BYTES, jitter_rng)
            )
            serve = provider.handle_request(request.file_id, index)
            clock.advance(serve.elapsed_ms)
            clock.advance(
                self.lan.one_way_ms(
                    self.lan_distance_km,
                    serve.segment.size_bytes,
                    jitter_rng,
                )
            )
            rounds.append(
                TimedRound(
                    index=index,
                    segment=serve.segment,
                    rtt_ms=clock.now_ms() - start_ms,
                )
            )
        position = self.gps.read_fix().position
        timed = tuple(rounds)
        (proof,), signature = self._sign_batch([transcript_payload(
            self.device_id, request.file_id, request.nonce, timed, position
        )])
        return SignedTranscript(
            device_id=self.device_id,
            file_id=request.file_id,
            nonce=request.nonce,
            rounds=timed,
            position=position,
            proof=proof,
            signature=signature,
        )

    def run_audits(
        self,
        requests: Sequence[AuditRequest],
        provider: CloudProvider,
        *,
        clock: SimClock | None = None,
    ) -> list[AuditRun | ReproError]:
        """Run a batch of audits; with :meth:`seal`, a :meth:`run_audit` loop.

        The protocol phase of every TPA audit.  Semantics are exactly
        ``[run_audit(request) for request in requests]`` run back to
        back on the shared clock (pinned by test) -- payloads,
        timings and every RNG draw match the scalar loop -- but the
        per-audit setup is amortized:

        * all challenge and jitter streams derive through one
          :meth:`~repro.crypto.rng.DeterministicRNG.fork_many` sweep
          of the device RNG (forks are stateless with respect to the
          parent, so batch derivation is exact);
        * a leg's draw-free LAN delay,
          :meth:`~repro.netsim.latency.LANModel.fixed_ms`, is computed
          once per payload size, and one
          :meth:`~repro.netsim.latency.LANModel.jitter_draws` read per
          audit covers the jitter of all its legs (equal to the
          per-leg ``expovariate`` draws of ``one_way_ms``);
        * each payload is encoded once, by
          :func:`~repro.core.messages.transcript_payload`, and nothing
          is signed here: the device keeps each run's body under a
          handle until :meth:`seal` signs one tree over the runs it is
          given.

        The LAN pieces are the model's own, so a ``lan`` with zero
        jitter times the same in both bodies; a subclass that overrides
        only ``one_way_ms`` changes the oracle but not this body.

        Sealed, the runs' payloads, clocks and verdicts match the
        scalar loop; only the proof and the signature differ, because a
        seal of n runs is one tree of n leaves where the loop signs n
        trees of one.

        Returns one entry per request, in order: an :class:`AuditRun`
        with the run's handle and the same started/finished clock
        readings the scalar loop observes (sealing later does not
        advance the clock), or the :class:`~repro.errors.ReproError`
        raised while drawing that request's challenge or running its
        timed rounds.  A failed request fails alone, as a raising
        ``run_audit`` call does in the loop: the rounds it ran stay on
        the clock, the next request starts from there, and it gets no
        handle.  Any other exception propagates.
        """
        if not requests:
            return []
        clock = clock if clock is not None else self.clock
        labels: list[str] = []
        for request in requests:
            session_label = request.nonce.hex()
            labels += (f"challenge-{session_label}", f"lan-jitter-{session_label}")
        forks = self._rng.fork_many(labels)

        lan, distance_km = self.lan, self.lan_distance_km
        fixed_request = lan.fixed_ms(distance_km, _REQUEST_BYTES)
        fixed_by_size: dict[int, float] = {}
        handle_request = provider.handle_request
        now_ms, advance = clock.now_ms, clock.advance
        unsealed = self._unsealed

        runs: list[AuditRun | ReproError] = []
        for request, challenge_rng, jitter_rng in zip(
            requests, forks[0::2], forks[1::2]
        ):
            started_ms = now_ms()
            rounds: list[TimedRound] = []
            file_id = request.file_id
            try:
                challenge = self.generate_challenge(request, challenge_rng)
                # Out and back legs alternate on the stream, as in the
                # oracle's two one_way_ms calls per round.
                jitter = lan.jitter_draws(jitter_rng, 2 * len(challenge))
                for index, out_ms, back_ms in zip(
                    challenge, jitter[0::2], jitter[1::2]
                ):
                    start_ms = now_ms()
                    advance(fixed_request + out_ms)
                    serve = handle_request(file_id, index)
                    advance(serve.elapsed_ms)
                    segment = serve.segment
                    size = len(segment.payload) + len(segment.tag)
                    fixed_response = fixed_by_size.get(size)
                    if fixed_response is None:
                        fixed_response = lan.fixed_ms(distance_km, size)
                        fixed_by_size[size] = fixed_response
                    advance(fixed_response + back_ms)
                    rounds.append(
                        TimedRound(index, segment, now_ms() - start_ms)
                    )
            except ReproError as exc:
                runs.append(exc)
                continue
            finished_ms = now_ms()
            position = self.gps.read_fix().position
            timed = tuple(rounds)
            payload = transcript_payload(
                self.device_id, file_id, request.nonce, timed, position
            )
            handle = _RunHandle()
            unsealed[handle] = (file_id, request.nonce, timed, position, payload)
            runs.append(AuditRun(handle, started_ms, finished_ms))
        return runs

    def check_handles(self, handles: Sequence[_RunHandle]) -> None:
        """Refuse ``handles`` unless :meth:`seal` would accept them.

        Every handle must name an unsealed run this device measured in
        :meth:`run_audits`.  One that is unknown, another device's,
        already sealed or named twice raises
        :class:`~repro.errors.ConfigurationError`.  The check changes
        nothing, so a caller about to seal on several devices can check
        them all before the first seal spends any run.
        """
        unsealed = self._unsealed
        seen: set[_RunHandle] = set()
        for position, handle in enumerate(handles):
            if handle not in unsealed or handle in seen:
                raise ConfigurationError(
                    f"handle {position} names no unsealed run of this device"
                )
            seen.add(handle)

    def seal(self, handles: Sequence[_RunHandle]) -> list[SignedTranscript]:
        """Sign the runs ``handles`` name as one tree; their transcripts.

        The handles pass :meth:`check_handles` first, so a bad one
        raises before anything is popped or signed and the other
        handles stay sealable.  The runs' payloads then become the
        leaves of one tree whose root :meth:`_sign_batch` signs once,
        and the transcripts come back in handle order, each with its
        payload memo seeded.  A handle carries no bytes, so the device
        signs only what it measured, and a run is sealed at most once.
        """
        self.check_handles(handles)
        if not handles:
            return []
        unsealed = self._unsealed
        bodies = [unsealed.pop(handle) for handle in handles]
        proofs, signature = self._sign_batch([body[4] for body in bodies])
        transcripts: list[SignedTranscript] = []
        for (file_id, nonce, rounds, position, payload), proof in zip(
            bodies, proofs
        ):
            transcript = SignedTranscript(
                device_id=self.device_id,
                file_id=file_id,
                nonce=nonce,
                rounds=rounds,
                position=position,
                proof=proof,
                signature=signature,
            )
            # Seed the payload memo: the TPA's verifier asks for these
            # exact bytes again.
            object.__setattr__(transcript, "_signed_payload", payload)
            transcripts.append(transcript)
        return transcripts
