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

Signing is per batch, not per transcript: the payloads of one
:meth:`VerifierDevice.run_audits` call become the leaves of one
:class:`~repro.por.merkle.MerkleTree`, the device signs
:func:`~repro.core.messages.batch_root_message` over its root once,
and each transcript carries that signature plus its own
:class:`~repro.core.messages.BatchProof`.  A tree never spans two
calls, so the device only ever signs bytes it measured itself.

The device does *not* know the MAC key and cannot judge segment
correctness -- that separation is deliberate in the paper (the TPA
verifies content; the device only attests timing and position).

:meth:`VerifierDevice.run_audits` is the protocol body every audit
runs through (the TPA sends a one-element batch for a single audit).
Each request in it fails alone: a :class:`~repro.errors.ReproError`
raised while drawing its challenge or running its rounds (a backend
that cannot serve, say) comes back in that request's place, and the
tree is signed over the runs that completed.
:meth:`VerifierDevice.run_audit` is the scalar reference oracle: one
audit, step by step as Fig. 4 draws it.  No production path calls it;
the equivalence tests and benches pin ``run_audits`` against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from repro.cloud.provider import CloudProvider
from repro.core.messages import (
    TRANSCRIPT_MAGIC,
    AuditRequest,
    BatchProof,
    SignedTranscript,
    TimedRound,
    batch_root_message,
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
from repro.util.serialization import (
    encode_float,
    encode_length_prefixed,
    encode_uint,
)


@dataclass(frozen=True, slots=True)
class AuditRun:
    """One audit's transcript plus its timed-phase boundaries.

    :meth:`VerifierDevice.run_audits` returns these so the TPA can log
    the same started/finished timestamps a caller of the scalar
    :meth:`VerifierDevice.run_audit` oracle reads off the clock around
    each call.
    """

    transcript: SignedTranscript
    started_ms: float
    finished_ms: float


class VerifierDevice:
    """The verifier appliance on the provider's LAN."""

    def __init__(
        self,
        device_id: bytes,
        location: GeoPoint,
        *,
        clock: SimClock | None = None,
        rng: DeterministicRNG | None = None,
    ) -> None:
        self.device_id = device_id
        self.location = location
        self.keypair = SchnorrKeyPair.generate(seed=device_id)
        self.gps = GPSReceiver(location)
        self.lan = LANModel()
        self.clock = clock or SimClock()
        #: Cable run between the device and the data centre's servers.
        self.lan_distance_km = 0.05
        self._rng = rng

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
        self,
        request: AuditRequest,
        provider: CloudProvider,
        *,
        rng: DeterministicRNG | None = None,
        clock: SimClock | None = None,
    ) -> SignedTranscript:
        """Run the timed phase and return the signed transcript R.

        The scalar reference oracle for :meth:`run_audits`, signed as a
        batch of one.  Per round
        j: send index ``c_j`` over the LAN, the provider produces the
        segment (disk and/or relay time), the response crosses the LAN
        back; ``Delta-t_j`` is the whole round trip as seen by the
        device clock.

        ``clock`` injects the clock the timed rounds run on.  It
        defaults to the device's own clock (the single-session shape);
        the fleet's event engine passes the per-datacentre lane clock
        instead, so one site's disk time never advances another
        site's timeline.
        """
        clock = clock if clock is not None else self.clock
        rng = rng or self._rng or DeterministicRNG(self.device_id + request.nonce)
        # Fork on the request nonce: every audit must draw a fresh,
        # unpredictable challenge set (a fixed set would let the
        # provider prefetch exactly the challenged segments).
        session_label = request.nonce.hex()
        challenge = self.generate_challenge(
            request, rng.fork(f"challenge-{session_label}")
        )
        jitter_rng = rng.fork(f"lan-jitter-{session_label}")
        rounds: list[TimedRound] = []
        request_bytes = 16  # index + framing on the wire
        for index in challenge:
            start_ms = clock.now_ms()
            clock.advance(
                self.lan.one_way_ms(self.lan_distance_km, request_bytes, jitter_rng)
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
        fix = self.gps.read_fix()
        unsigned = SignedTranscript(
            device_id=self.device_id,
            file_id=request.file_id,
            nonce=request.nonce,
            rounds=tuple(rounds),
            position=fix.position,
            proof=BatchProof(b"", 0, 0, ()),  # placeholders until signed below
            signature=(0, 0),
        )
        (proof,), signature = self._sign_batch([unsigned.signed_payload()])
        return replace(unsigned, proof=proof, signature=signature)

    def run_audits(
        self,
        requests: Sequence[AuditRequest],
        provider: CloudProvider,
        *,
        rng: DeterministicRNG | None = None,
        clock: SimClock | None = None,
    ) -> list[AuditRun | ReproError]:
        """Run a batch of audits; byte-identical to a :meth:`run_audit` loop.

        The protocol phase of every TPA audit.  Semantics are exactly
        ``[run_audit(request) for request in requests]`` run back to
        back on the shared clock (pinned by test) -- transcripts,
        timings and every RNG draw match the scalar loop -- but the
        per-audit setup is amortized:

        * all challenge and jitter streams derive through one
          :meth:`~repro.crypto.rng.DeterministicRNG.fork_many` sweep
          (forks are stateless with respect to the parent, so batch
          derivation is exact);
        * LAN delay terms that do not depend on the draw (propagation,
          switching, serialisation) are precomputed per payload size;
        * signed payloads are encoded once, inline, and the whole call
          is signed once: the payloads are the leaves of one hash tree
          and the device signs its root (see :meth:`_sign_batch`).

        Payloads, clocks and verdicts match the scalar loop; only the
        proof and the signature differ, because a batch of n is one
        tree of n leaves where the loop signs n trees of one.

        Returns one entry per request, in order: an :class:`AuditRun`
        with the same started/finished clock readings the scalar loop
        observes (signing happens after the last timed phase and does
        not advance the clock), or the
        :class:`~repro.errors.ReproError` raised while drawing that
        request's challenge or running its timed rounds.  A failed
        request fails alone, as a raising ``run_audit`` call does in the
        loop: the rounds it ran stay on the clock, the next request
        starts from there, and it gets no leaf in the signed tree.  Any
        other exception propagates.
        """
        if not requests:
            return []
        clock = clock if clock is not None else self.clock
        shared_rng = rng or self._rng
        if shared_rng is not None:
            labels: list[str] = []
            for request in requests:
                session_label = request.nonce.hex()
                labels.append(f"challenge-{session_label}")
                labels.append(f"lan-jitter-{session_label}")
            forks = shared_rng.fork_many(labels)
            challenge_rngs = forks[0::2]
            jitter_rngs = forks[1::2]
        else:
            # Scalar fallback construction: a fresh per-nonce parent.
            challenge_rngs = []
            jitter_rngs = []
            for request in requests:
                parent = DeterministicRNG(self.device_id + request.nonce)
                session_label = request.nonce.hex()
                challenge_rngs.append(parent.fork(f"challenge-{session_label}"))
                jitter_rngs.append(parent.fork(f"lan-jitter-{session_label}"))

        # LAN fast path: precompute the draw-independent delay terms.
        # Only the stock LANModel formula is inlined; a custom latency
        # model falls back to its own one_way_ms (still per-round, so
        # custom models stay correct, just not amortized).
        lan = self.lan
        distance_km = self.lan_distance_km
        inline_lan = type(lan) is LANModel
        request_bytes = 16  # index + framing on the wire
        if inline_lan:
            # Same float association order as LANModel.one_way_ms:
            # ((propagation + switching) + serialisation) + jitter.
            lan_base = (
                distance_km / lan.propagation_speed_km_per_ms
                + lan.n_switches * lan.switch_delay_ms
            )
            bits_per_ms = lan.bandwidth_mbps * 1000.0
            base_request = lan_base + (request_bytes * 8.0) / bits_per_ms
            jitter_rate = 1.0 / lan.jitter_ms if lan.jitter_ms > 0 else None
            base_by_size: dict[int, float] = {}

        log = math.log
        handle_request = provider.handle_request
        now_ms = clock.now_ms
        advance = clock.advance
        device_prefix = TRANSCRIPT_MAGIC + encode_length_prefixed(self.device_id)
        file_prefix: dict[bytes, bytes] = {}

        # One entry per request: the error it raised, or what its
        # transcript needs once the batch is signed.
        entries: list[
            ReproError | tuple[AuditRequest, tuple[TimedRound, ...], GeoPoint, float, float]
        ] = []
        payloads: list[bytes] = []
        from_bytes = int.from_bytes
        for position, request in enumerate(requests):
            started_ms = now_ms()
            rounds: list[TimedRound] = []
            file_id = request.file_id
            try:
                challenge = self.generate_challenge(
                    request, challenge_rngs[position]
                )
                jitter_rng = jitter_rngs[position]
                if inline_lan and jitter_rate is not None:
                    # Two 53-bit draws (7 bytes each) per round; pulling
                    # the whole audit's jitter bytes in one stream read
                    # is byte-identical to per-draw randbits(53) calls.
                    jitter_bytes = jitter_rng.random_bytes(14 * len(challenge))
                    joff = 0
                for index in challenge:
                    start_ms = now_ms()
                    if inline_lan:
                        if jitter_rate is not None:
                            u = (
                                from_bytes(jitter_bytes[joff : joff + 7], "big")
                                >> 3
                            ) / 9007199254740992  # 2**53
                            joff += 7
                            advance(base_request + (-log(1.0 - u) / jitter_rate))
                        else:
                            advance(base_request)
                    else:
                        advance(lan.one_way_ms(distance_km, request_bytes, jitter_rng))
                    serve = handle_request(file_id, index)
                    advance(serve.elapsed_ms)
                    segment = serve.segment
                    if inline_lan:
                        size = segment.size_bytes
                        base_response = base_by_size.get(size)
                        if base_response is None:
                            # Exact scalar association: (bytes*8.0)/(mbps*1000.0).
                            base_response = lan_base + (size * 8.0) / bits_per_ms
                            base_by_size[size] = base_response
                        if jitter_rate is not None:
                            u = (
                                from_bytes(jitter_bytes[joff : joff + 7], "big")
                                >> 3
                            ) / 9007199254740992
                            joff += 7
                            advance(base_response + (-log(1.0 - u) / jitter_rate))
                        else:
                            advance(base_response)
                    else:
                        advance(
                            lan.one_way_ms(distance_km, segment.size_bytes, jitter_rng)
                        )
                    rounds.append(
                        TimedRound(
                            index=index,
                            segment=segment,
                            rtt_ms=now_ms() - start_ms,
                        )
                    )
            except ReproError as exc:
                entries.append(exc)
                continue
            finished_ms = now_ms()
            fix = self.gps.read_fix()

            prefix = file_prefix.get(file_id)
            if prefix is None:
                prefix = device_prefix + encode_length_prefixed(file_id)
                file_prefix[file_id] = prefix
            parts = [
                prefix,
                encode_length_prefixed(request.nonce),
                encode_uint(len(rounds)),
            ]
            for round_ in rounds:
                parts.append(encode_uint(round_.index))
                parts.append(round_.segment.wire_bytes())
                parts.append(encode_float(round_.rtt_ms))
            parts.append(encode_float(fix.position.latitude))
            parts.append(encode_float(fix.position.longitude))
            payloads.append(b"".join(parts))
            entries.append(
                (request, tuple(rounds), fix.position, started_ms, finished_ms)
            )

        if not payloads:  # every request failed: nothing to sign
            return [entry for entry in entries if isinstance(entry, ReproError)]
        proofs, signature = self._sign_batch(payloads)
        signed = iter(zip(payloads, proofs))
        runs: list[AuditRun | ReproError] = []
        for entry in entries:
            if isinstance(entry, ReproError):
                runs.append(entry)
                continue
            request, rounds_tuple, position_fix, started_ms, finished_ms = entry
            payload, proof = next(signed)
            transcript = SignedTranscript(
                device_id=self.device_id,
                file_id=request.file_id,
                nonce=request.nonce,
                rounds=rounds_tuple,
                position=position_fix,
                proof=proof,
                signature=signature,
            )
            # Seed the payload memo: the TPA's verify plane and the
            # service wire both ask for these exact bytes again.
            object.__setattr__(transcript, "_signed_payload", payload)
            runs.append(
                AuditRun(
                    transcript=transcript,
                    started_ms=started_ms,
                    finished_ms=finished_ms,
                )
            )
        return runs
