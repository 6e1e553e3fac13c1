"""The third-party auditor: registration, audits, reporting."""

from collections import Counter, deque

import pytest

from repro.cloud.tpa import AUDIT_LOG_LIMIT, ThirdPartyAuditor
from repro.core.session import GeoProofSession
from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError
from repro.geo.datasets import city
from repro.por.parameters import TEST_PARAMS
from tests.conftest import build_session, scalar_audit


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
        assert list(session.tpa.audit_log) == [outcome]
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
        """Same seed, both modes and the scalar oracle: all ``==``."""
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
        assert list(deferred_session.tpa.audit_log) == []
        flushed = deferred_session.tpa.flush_verdicts(pending)
        assert immediate == oracle
        assert flushed == oracle
        assert list(immediate_session.tpa.audit_log) == oracle
        assert list(deferred_session.tpa.audit_log) == oracle

    def test_flush_empty_is_noop(self):
        session, _, _ = build_session("tpa-noflush")
        assert session.tpa.flush_verdicts([]) == []
        assert list(session.tpa.audit_log) == []

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


class TestBoundedAuditLog:
    def test_ring_keeps_most_recent(self):
        session, file_id, _ = build_session("tpa-ring")
        bounded = ThirdPartyAuditor(
            "ring", DeterministicRNG("ring"), max_log=2
        )
        record = session.tpa.record(file_id)
        bounded.register_file(
            file_id,
            record.n_segments,
            record.mac_key,
            record.params,
            record.sla,
        )
        outcomes = [
            bounded.audit(file_id, session.verifier, session.provider, k=5)
            for _ in range(5)
        ]
        assert list(bounded.audit_log) == outcomes[-2:]

    def test_counters_exact_after_eviction(self):
        session, file_id, _ = build_session("tpa-ring-count")
        bounded = ThirdPartyAuditor(
            "ring", DeterministicRNG("ring"), max_log=1
        )
        record = session.tpa.record(file_id)
        bounded.register_file(
            file_id,
            record.n_segments,
            record.mac_key,
            record.params,
            record.sla,
        )
        for _ in range(3):
            bounded.audit(file_id, session.verifier, session.provider, k=5)
        bounded.audit(
            file_id,
            session.verifier,
            session.provider,
            k=5,
            rtt_max_ms=0.001,
        )
        # One outcome retained, four counted.
        assert len(bounded.audit_log) == 1
        assert bounded.acceptance_rate() == pytest.approx(0.75)
        assert bounded.failures_by_reason().get("timing") == 1

    def test_invalid_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            ThirdPartyAuditor("bad", DeterministicRNG("bad"), max_log=0)

    def test_unbounded_log_rejected(self):
        with pytest.raises(ConfigurationError):
            ThirdPartyAuditor("bad", DeterministicRNG("bad"), max_log=None)

    def test_serve_session_log_is_bounded_by_default(self):
        """A session built the way ``repro serve`` builds it (no log
        bound passed) keeps only the newest AUDIT_LOG_LIMIT outcomes,
        while the reports still count every audit it settled."""
        session = GeoProofSession.build(
            datacentre_location=city("brisbane"),
            params=TEST_PARAMS,
            min_rounds=10,
            seed="serve",
        )
        data = DeterministicRNG("serve-data").fork("0").random_bytes(4_000)
        session.outsource(b"file-0", data)
        tpa = session.tpa
        n_forced_rejects = 50
        pending = tpa.audit_deferred_many(
            [(b"file-0", None)] * AUDIT_LOG_LIMIT,
            session.verifier,
            session.provider,
        )
        pending += tpa.audit_deferred_many(
            [(b"file-0", None)] * n_forced_rejects,
            session.verifier,
            session.provider,
            rtt_max_ms=0.001,
        )
        outcomes = tpa.flush_verdicts(pending)
        assert len(outcomes) == AUDIT_LOG_LIMIT + n_forced_rejects
        assert isinstance(tpa.audit_log, deque)
        assert len(tpa.audit_log) == AUDIT_LOG_LIMIT
        assert list(tpa.audit_log) == outcomes[-AUDIT_LOG_LIMIT:]
        n_accepted = sum(outcome.verdict.accepted for outcome in outcomes)
        assert tpa.acceptance_rate() == n_accepted / len(outcomes)
        assert tpa.failures_by_reason() == dict(
            Counter(
                reason
                for outcome in outcomes
                for reason in outcome.verdict.failure_reasons
            )
        )
        assert tpa.failures_by_reason()["timing"] >= n_forced_rejects


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
