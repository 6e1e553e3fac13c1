"""The third-party auditor: registration, audits, reporting."""

import pytest

from repro.errors import ConfigurationError
from tests.conftest import (
    assert_equal_apart_from_proof,
    build_session,
    scalar_audit,
    verdict_counts,
)


# Every test here pays a full POR setup in its fixtures: slow lane.
pytestmark = pytest.mark.slow

class TestRegistration:
    def test_duplicate_registration_rejected(self):
        session, file_id, _ = build_session("tpa-dup")
        record = session.files[file_id]
        with pytest.raises(ConfigurationError):
            session.tpa.register_file(
                file_id,
                record.n_segments,
                record.keys.mac_key,
                session.params,
                session.sla,
            )

    def test_unknown_file(self):
        session, _, _ = build_session("tpa-unknown")
        with pytest.raises(ConfigurationError):
            session.tpa.record(b"ghost")


class TestAuditing:
    def test_honest_audit_accepted_and_logged(self):
        session, file_id, _ = build_session("tpa-honest")
        outcome = session.audit(file_id, k=10)
        assert outcome.verdict.accepted
        assert (outcome.request.file_id, outcome.request.k) == (file_id, 10)
        assert verdict_counts(session.tpa) == {"accepted": 1, "rejected": 0}
        assert outcome.duration_ms > 0

    def test_default_k_from_sla(self):
        session, file_id, _ = build_session("tpa-defaults")
        outcome = session.audit(file_id)
        assert outcome.request.k == session.sla.min_rounds

    def test_nonces_are_fresh(self):
        session, file_id, _ = build_session("tpa-nonce")
        a = session.audit(file_id, k=5)
        b = session.audit(file_id, k=5)
        assert a.request.nonce != b.request.nonce

    def test_rtt_override(self):
        session, file_id, _ = build_session("tpa-override")
        strict = session.audit(file_id, k=5, rtt_max_ms=0.001)
        assert not strict.verdict.accepted
        assert "timing" in strict.verdict.failure_reasons

    def test_refused_k_draws_no_nonce(self):
        """An out-of-range k is refused before the nonce is drawn, so
        the next request's nonce equals a twin's that was never asked."""
        session, file_id, _ = build_session("tpa-refused-k")
        twin, _, _ = build_session("tpa-refused-k")
        n_segments = session.tpa.record(file_id).n_segments
        for bad_k in (0, n_segments + 1, 10**9):
            with pytest.raises(ConfigurationError, match="k must be in"):
                session.tpa.make_request(file_id, bad_k)
        with pytest.raises(ConfigurationError, match="k must be in"):
            session.tpa.audit(
                file_id, session.verifier, session.provider, k=10**9
            )
        assert (
            session.tpa.make_request(file_id, 5).nonce
            == twin.tpa.make_request(file_id, 5).nonce
        )


class TestDeferredVerification:
    def test_deferred_outcomes_equal_immediate(self):
        """Same seed, both modes and the scalar oracle agree.

        Immediate audits are trees of one, like the oracle's, so they
        pin with ``==``.  The four deferred runs share one flush and so
        one signed root: they equal the oracle apart from proof and
        signature."""
        oracle_session, file_id, _ = build_session("tpa-defer")
        immediate_session, _, _ = build_session("tpa-defer")
        deferred_session, _, _ = build_session("tpa-defer")
        oracle = [
            scalar_audit(
                oracle_session.tpa,
                file_id,
                oracle_session.verifier,
                oracle_session.provider,
                k=5,
            )
            for _ in range(4)
        ]
        immediate = [
            immediate_session.tpa.audit(
                file_id,
                immediate_session.verifier,
                immediate_session.provider,
                k=5,
            )
            for _ in range(4)
        ]
        pending = [
            deferred_session.tpa.audit_deferred(
                file_id,
                deferred_session.verifier,
                deferred_session.provider,
                k=5,
            )
            for _ in range(4)
        ]
        # Nothing is counted until the flush settles the runs.
        assert verdict_counts(deferred_session.tpa) == {
            "accepted": 0, "rejected": 0
        }
        flushed = deferred_session.tpa.flush_verdicts(pending)
        assert immediate == oracle
        for session in (immediate_session, deferred_session):
            assert verdict_counts(session.tpa) == {"accepted": 4, "rejected": 0}
        assert len({o.transcript.signature for o in flushed}) == 1
        assert_equal_apart_from_proof(
            flushed, oracle, deferred_session.verifier.public_key
        )

    def test_flush_empty_is_noop(self):
        session, _, _ = build_session("tpa-noflush")
        before = session.tpa.metrics.snapshot()
        assert session.tpa.flush_verdicts([]) == []
        assert session.tpa.metrics.snapshot() == before
        assert verdict_counts(session.tpa) == {"accepted": 0, "rejected": 0}

    def test_deferred_counts_failures(self):
        session, file_id, _ = build_session("tpa-defer-fail")
        pending = [
            session.tpa.audit_deferred(
                file_id, session.verifier, session.provider, k=5
            ),
            session.tpa.audit_deferred(
                file_id,
                session.verifier,
                session.provider,
                k=5,
                rtt_max_ms=0.001,
            ),
        ]
        session.tpa.flush_verdicts(pending)
        assert session.tpa.acceptance_rate() == pytest.approx(0.5)
        assert session.tpa.failures_by_reason().get("timing") == 1


class TestReporting:
    def test_acceptance_rate(self):
        session, file_id, _ = build_session("tpa-rate")
        session.audit(file_id, k=5)
        session.audit(file_id, k=5, rtt_max_ms=0.001)  # forced reject
        assert session.tpa.acceptance_rate() == pytest.approx(0.5)

    def test_empty_log_rate(self):
        session, _, _ = build_session("tpa-empty")
        assert session.tpa.acceptance_rate() == 0.0

    def test_failures_by_reason(self):
        session, file_id, _ = build_session("tpa-hist")
        session.audit(file_id, k=5, rtt_max_ms=0.001)
        session.audit(file_id, k=5, rtt_max_ms=0.001)
        histogram = session.tpa.failures_by_reason()
        assert histogram.get("timing") == 2
