"""The TPA's four verification steps, each attacked in isolation."""

import dataclasses

import pytest

from repro.core.messages import AuditRequest
from repro.core.verification import verify_transcript
from repro.crypto.schnorr import SchnorrKeyPair, TEST_GROUP
from repro.geo.coords import GeoPoint
from repro.geo.regions import CircularRegion
from repro.por.file_format import Segment
from tests.conftest import build_session


# Every test here pays a full POR setup in its fixtures: slow lane.
pytestmark = pytest.mark.slow

@pytest.fixture
def audited():
    """An honest audit plus everything needed to re-verify it."""
    session, file_id, _ = build_session("verif")
    outcome = session.audit(file_id, k=8)
    record = session.tpa.record(file_id)
    return session, outcome, record


def reverify(session, outcome, record, *, transcript=None, request=None, **overrides):
    defaults = dict(
        verifier_public_key=session.verifier.public_key,
        mac_key=record.mac_key,
        params=record.params,
        region=record.sla.region,
        rtt_max_ms=record.sla.rtt_max_ms,
    )
    defaults.update(overrides)
    return verify_transcript(
        transcript if transcript is not None else outcome.transcript,
        request if request is not None else outcome.request,
        **defaults,
    )


class TestHonestPath:
    def test_all_checks_pass(self, audited):
        session, outcome, record = audited
        verdict = reverify(session, outcome, record)
        assert verdict.accepted
        assert verdict.signature_ok and verdict.position_ok
        assert verdict.macs_ok and verdict.timing_ok and verdict.challenge_ok
        assert verdict.failure_reasons == []


class TestStep1Signature:
    def test_wrong_public_key(self, audited):
        session, outcome, record = audited
        other = SchnorrKeyPair.generate(TEST_GROUP, seed=b"imposter")
        verdict = reverify(
            session, outcome, record, verifier_public_key=other.public
        )
        assert not verdict.accepted
        assert not verdict.signature_ok
        assert "signature" in verdict.failure_reasons

    def test_tampered_round_breaks_signature(self, audited):
        session, outcome, record = audited
        transcript = outcome.transcript
        fast_rounds = tuple(
            dataclasses.replace(r, rtt_ms=0.01) for r in transcript.rounds
        )
        forged = dataclasses.replace(transcript, rounds=fast_rounds)
        verdict = reverify(session, outcome, record, transcript=forged)
        assert not verdict.signature_ok


class TestStep2Position:
    def test_position_outside_region(self, audited):
        session, outcome, record = audited
        singapore_region = CircularRegion(GeoPoint(1.35, 103.82), 100.0)
        verdict = reverify(session, outcome, record, region=singapore_region)
        assert not verdict.accepted
        assert not verdict.position_ok
        assert "gps" in verdict.failure_reasons


class TestStep3MACs:
    def test_forged_segment_caught(self, audited):
        session, outcome, record = audited
        transcript = outcome.transcript
        victim = transcript.rounds[0]
        forged_segment = Segment(
            index=victim.index,
            payload=bytes(len(victim.segment.payload)),
            tag=victim.segment.tag,
        )
        rounds = (dataclasses.replace(victim, segment=forged_segment),) + transcript.rounds[1:]
        forged = dataclasses.replace(transcript, rounds=rounds)
        verdict = reverify(session, outcome, record, transcript=forged)
        assert not verdict.macs_ok
        assert verdict.bad_mac_indices == (victim.index,)
        # (signature also fails -- the device signed the real data.)
        assert not verdict.accepted

    def test_wrong_mac_key(self, audited):
        session, outcome, record = audited
        verdict = reverify(session, outcome, record, mac_key=b"wrong-key")
        assert not verdict.macs_ok


class TestStep4Timing:
    def test_tight_budget_rejects(self, audited):
        session, outcome, record = audited
        verdict = reverify(session, outcome, record, rtt_max_ms=1.0)
        assert not verdict.timing_ok
        assert "timing" in verdict.failure_reasons
        assert verdict.max_rtt_ms > 1.0

    def test_reported_budget_and_max(self, audited):
        session, outcome, record = audited
        verdict = reverify(session, outcome, record)
        assert verdict.rtt_max_ms == pytest.approx(record.sla.rtt_max_ms)
        assert verdict.max_rtt_ms == pytest.approx(outcome.transcript.max_rtt_ms)


class TestRequestConsistency:
    def test_nonce_replay_rejected(self, audited):
        session, outcome, record = audited
        replayed = AuditRequest(
            file_id=outcome.request.file_id,
            n_segments=outcome.request.n_segments,
            k=outcome.request.k,
            nonce=b"different-nonce!",
        )
        verdict = reverify(session, outcome, record, request=replayed)
        assert not verdict.challenge_ok
        assert "challenge" in verdict.failure_reasons

    def test_wrong_file_rejected(self, audited):
        session, outcome, record = audited
        other = AuditRequest(
            file_id=b"other-file",
            n_segments=outcome.request.n_segments,
            k=outcome.request.k,
            nonce=outcome.request.nonce,
        )
        verdict = reverify(session, outcome, record, request=other)
        assert not verdict.challenge_ok

    def test_short_answer_rejected(self, audited):
        session, outcome, record = audited
        transcript = outcome.transcript
        truncated = dataclasses.replace(transcript, rounds=transcript.rounds[:-1])
        verdict = reverify(session, outcome, record, transcript=truncated)
        assert not verdict.challenge_ok
