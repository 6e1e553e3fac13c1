"""Property-based tests over the whole protocol stack.

Hypothesis drives file sizes, audit parameters and attack placements;
the invariants are the protocol's contract:

* completeness -- an honest deployment always passes;
* extraction -- the stored bytes always reproduce the original file;
* transcript binding -- any mutation of a signed transcript is caught;
* timing soundness -- a provider-side delay above the slack is always
  caught, regardless of which rounds it hits.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.messages import TimedRound
from repro.core.session import GeoProofSession
from repro.core.verification import verify_transcript
from repro.crypto.rng import DeterministicRNG
from repro.geo.coords import GeoPoint
from repro.por.file_format import Segment
from repro.por.parameters import TEST_PARAMS
from repro.por.setup import extract_file

# Every test here pays a full POR setup in its fixtures: slow lane.
pytestmark = pytest.mark.slow

BRISBANE = GeoPoint(-27.4698, 153.0251)

_slow = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def fresh_session(seed: str, file_bytes: int):
    session = GeoProofSession.build(
        datacentre_location=BRISBANE, params=TEST_PARAMS, seed=seed
    )
    data = DeterministicRNG(f"{seed}-data").random_bytes(file_bytes)
    session.outsource(b"prop-file", data)
    return session, data


class TestCompleteness:
    @given(
        file_bytes=st.integers(500, 30_000),
        k=st.integers(1, 25),
    )
    @_slow
    def test_honest_audit_always_accepted(self, file_bytes, k):
        session, _ = fresh_session(f"comp-{file_bytes}-{k}", file_bytes)
        k = min(k, session.files[b"prop-file"].n_segments)
        outcome = session.audit(b"prop-file", k=k)
        assert outcome.verdict.accepted
        assert outcome.verdict.failure_reasons == []

    @given(file_bytes=st.integers(0, 20_000))
    @_slow
    def test_extraction_always_lossless(self, file_bytes):
        session, data = fresh_session(f"ext-{file_bytes}", file_bytes)
        store = session.provider.home_of(b"prop-file").server.store
        recovered = extract_file(
            store.file_meta(b"prop-file"), session.files[b"prop-file"].keys
        )
        assert recovered == data


class TestTranscriptBinding:
    @given(
        mutation=st.sampled_from(
            ["rtt", "payload", "tag", "index", "nonce", "position", "drop"]
        ),
        victim=st.integers(0, 7),
    )
    @_slow
    def test_any_mutation_is_rejected(self, mutation, victim):
        session, _ = fresh_session("bind", 10_000)
        outcome = session.audit(b"prop-file", k=8)
        transcript = outcome.transcript
        victim_round = transcript.rounds[victim]
        segment = victim_round.segment

        if mutation == "rtt":
            new_round = dataclasses.replace(victim_round, rtt_ms=0.001)
        elif mutation == "payload":
            new_round = dataclasses.replace(
                victim_round,
                segment=Segment(segment.index, bytes(len(segment.payload)), segment.tag),
            )
        elif mutation == "tag":
            flipped = bytes([segment.tag[0] ^ 0x80]) + segment.tag[1:]
            new_round = dataclasses.replace(
                victim_round,
                segment=Segment(segment.index, segment.payload, flipped),
            )
        elif mutation == "index":
            new_round = dataclasses.replace(
                victim_round, index=(victim_round.index + 1) % 1000
            )
        elif mutation == "nonce":
            new_round = victim_round
        elif mutation == "position":
            new_round = victim_round
        else:  # drop
            new_round = None

        if mutation == "nonce":
            forged = dataclasses.replace(transcript, nonce=b"f" * 16)
        elif mutation == "position":
            forged = dataclasses.replace(
                transcript, position=GeoPoint(1.35, 103.82)
            )
        elif mutation == "drop":
            forged = dataclasses.replace(
                transcript, rounds=transcript.rounds[:-1]
            )
        else:
            rounds = list(transcript.rounds)
            rounds[victim] = new_round
            forged = dataclasses.replace(transcript, rounds=tuple(rounds))

        record = session.tpa.record(b"prop-file")
        verdict = verify_transcript(
            forged,
            outcome.request,
            verifier_public_key=session.verifier.public_key,
            mac_key=record.mac_key,
            params=record.params,
            region=record.sla.region,
            rtt_max_ms=record.sla.rtt_max_ms,
        )
        assert not verdict.accepted, mutation


class TestTimingSoundness:
    @given(delay_ms=st.floats(5.0, 500.0))
    @_slow
    def test_provider_delay_above_slack_always_caught(self, delay_ms):
        """Any injected per-round delay above the budget slack fails the
        audit -- no matter its magnitude."""
        session, _ = fresh_session(f"delay-{delay_ms:.1f}", 10_000)

        class DelayStrategy:
            def __init__(self, extra_ms):
                self.extra_ms = extra_ms

            def handle_request(self, provider, file_id, index):
                result = provider.home_of(file_id).lookup(file_id, index)
                return dataclasses.replace(
                    result, elapsed_ms=result.elapsed_ms + self.extra_ms
                )

        session.provider.set_strategy(DelayStrategy(delay_ms))
        outcome = session.audit(b"prop-file", k=5)
        # Slack = budget (16.1) - honest round (~13.2) ~ 2.9 ms; every
        # delay >= 5 ms must trip the timing check.
        assert not outcome.verdict.accepted
        assert "timing" in outcome.verdict.failure_reasons

    @given(delay_ms=st.floats(0.0, 1.0))
    @_slow
    def test_sub_slack_delay_tolerated(self, delay_ms):
        """Delays inside the slack must NOT false-reject (robustness)."""
        session, _ = fresh_session(f"tiny-{delay_ms:.3f}", 10_000)

        class DelayStrategy:
            def handle_request(self, provider, file_id, index):
                result = provider.home_of(file_id).lookup(file_id, index)
                return dataclasses.replace(
                    result, elapsed_ms=result.elapsed_ms + delay_ms
                )

        session.provider.set_strategy(DelayStrategy())
        outcome = session.audit(b"prop-file", k=5)
        assert outcome.verdict.accepted
