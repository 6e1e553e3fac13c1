"""Batch protocol plane: run_audits / audit_deferred_many pins.

The daemon's throughput path (one ``fork_many`` sweep, inlined LAN
arithmetic, one signed hash-tree root per call) must be
*request-for-request identical* to the scalar protocol loop -- same
payloads, same clock readings, same verdicts.  Only the batch proof
and the signature differ (one tree of n leaves against n trees of
one), and every transcript on both sides must verify.  These tests pin
that equivalence, including under adversarial providers and with the
non-default code paths (no device RNG, custom LAN subclass).
"""

import dataclasses

import pytest

from repro.cloud.adversary import CorruptionAttack, RelayAttack
from repro.cloud.provider import DataCentre
from repro.core.messages import AuditRequest
from repro.crypto.rng import DeterministicRNG
from repro.geo.coords import GeoPoint
from repro.geo.regions import CircularRegion
from repro.netsim.latency import LANModel
from tests.conftest import (
    assert_equal_apart_from_proof,
    build_session,
    scalar_audit,
)

# Full POR setup per session: slow lane.
pytestmark = pytest.mark.slow


def make_requests(session, file_id, n, k=5, seed="batch-nonce"):
    """Fixed-nonce requests so both sessions see identical inputs."""
    record = session.tpa.record(file_id)
    nonce_rng = DeterministicRNG(seed)
    return [
        AuditRequest(
            file_id=file_id,
            n_segments=record.n_segments,
            k=k,
            nonce=nonce_rng.random_bytes(16),
        )
        for _ in range(n)
    ]


def assert_runs_match_scalar(scalar_session, batch_session, requests):
    """run_audits == [run_audit(...)] with identical clock boundaries."""
    scalar = []
    for request in requests:
        started = scalar_session.verifier.clock.now_ms()
        transcript = scalar_session.verifier.run_audit(
            request, scalar_session.provider
        )
        finished = scalar_session.verifier.clock.now_ms()
        scalar.append((transcript, started, finished))

    runs = batch_session.verifier.run_audits(requests, batch_session.provider)

    assert len(runs) == len(scalar)
    assert_equal_apart_from_proof(
        [run.transcript for run in runs],
        [transcript for transcript, _, _ in scalar],
        batch_session.verifier.public_key,
    )
    for run, (transcript, started, finished) in zip(runs, scalar):
        assert run.started_ms == started
        assert run.finished_ms == finished
    assert (
        batch_session.verifier.clock.now_ms()
        == scalar_session.verifier.clock.now_ms()
    )


class TestRunAuditsEquivalence:
    def test_honest_batch_matches_scalar(self):
        scalar_session, file_id, _ = build_session("batch-pin")
        batch_session, _, _ = build_session("batch-pin")
        requests = make_requests(scalar_session, file_id, 8)
        assert_runs_match_scalar(scalar_session, batch_session, requests)

    def test_multiple_files_share_one_batch(self):
        scalar_session, file_id, _ = build_session("batch-two-files")
        batch_session, _, _ = build_session("batch-two-files")
        extra = DeterministicRNG("batch-extra-data").random_bytes(12_000)
        scalar_session.outsource(b"second-file", extra)
        batch_session.outsource(b"second-file", extra)
        requests = make_requests(
            scalar_session, file_id, 3
        ) + make_requests(scalar_session, b"second-file", 3, seed="batch-n2")
        assert_runs_match_scalar(scalar_session, batch_session, requests)

    def test_corrupting_provider_matches_scalar(self):
        """Adversarial serves (different payload bytes) stay identical."""
        scalar_session, file_id, _ = build_session("batch-corrupt")
        batch_session, _, _ = build_session("batch-corrupt")
        scalar_session.provider.set_strategy(
            CorruptionAttack("home", 0.5, DeterministicRNG("corrupt"))
        )
        batch_session.provider.set_strategy(
            CorruptionAttack("home", 0.5, DeterministicRNG("corrupt"))
        )
        requests = make_requests(scalar_session, file_id, 6)
        assert_runs_match_scalar(scalar_session, batch_session, requests)

    def test_relay_provider_matches_scalar(self):
        """Relay serves change elapsed_ms per round; timings must pin."""
        scalar_session, file_id, _ = build_session("batch-relay")
        batch_session, _, _ = build_session("batch-relay")
        for session in (scalar_session, batch_session):
            session.provider.add_datacentre(
                DataCentre("remote", GeoPoint(-33.8688, 151.2093, "Sydney"))
            )
            session.provider.relocate(file_id, "remote")
            session.provider.set_strategy(RelayAttack("home", "remote"))
        requests = make_requests(scalar_session, file_id, 4)
        assert_runs_match_scalar(scalar_session, batch_session, requests)

    def test_no_device_rng_falls_back_per_nonce(self):
        """rng=None path: per-nonce parents, still scalar-identical."""
        scalar_session, file_id, _ = build_session("batch-nornng")
        batch_session, _, _ = build_session("batch-nornng")
        scalar_session.verifier._rng = None
        batch_session.verifier._rng = None
        requests = make_requests(scalar_session, file_id, 4)
        assert_runs_match_scalar(scalar_session, batch_session, requests)

    def test_custom_lan_subclass_uses_model_path(self):
        """A LANModel subclass must bypass the inline fast path and
        still match the scalar loop (which always calls the model)."""

        @dataclasses.dataclass
        class DoubledLAN(LANModel):
            def one_way_ms(self, distance_km, payload_bytes=0, rng=None):
                return 2.0 * super().one_way_ms(distance_km, payload_bytes, rng)

        scalar_session, file_id, _ = build_session("batch-lan-sub")
        batch_session, _, _ = build_session("batch-lan-sub")
        scalar_session.verifier.lan = DoubledLAN()
        batch_session.verifier.lan = DoubledLAN()
        requests = make_requests(scalar_session, file_id, 4)
        assert_runs_match_scalar(scalar_session, batch_session, requests)

    def test_zero_jitter_lan(self):
        """jitter_ms=0 draws nothing from the jitter stream."""
        scalar_session, file_id, _ = build_session("batch-nojit")
        batch_session, _, _ = build_session("batch-nojit")
        scalar_session.verifier.lan = LANModel(jitter_ms=0.0)
        batch_session.verifier.lan = LANModel(jitter_ms=0.0)
        requests = make_requests(scalar_session, file_id, 4)
        assert_runs_match_scalar(scalar_session, batch_session, requests)

    def test_explicit_shared_rng(self):
        """An explicitly passed RNG overrides the device RNG, batch too."""
        scalar_session, file_id, _ = build_session("batch-explicit")
        batch_session, _, _ = build_session("batch-explicit")
        requests = make_requests(scalar_session, file_id, 3)
        scalar = [
            scalar_session.verifier.run_audit(
                request,
                scalar_session.provider,
                rng=DeterministicRNG("override"),
            )
            for request in requests
        ]
        runs = batch_session.verifier.run_audits(
            requests, batch_session.provider, rng=DeterministicRNG("override")
        )
        assert_equal_apart_from_proof(
            [run.transcript for run in runs],
            scalar,
            batch_session.verifier.public_key,
        )

    def test_empty_batch(self):
        session, _, _ = build_session("batch-empty")
        before = session.verifier.clock.now_ms()
        assert session.verifier.run_audits([], session.provider) == []
        assert session.verifier.clock.now_ms() == before

    def test_batch_payload_memo_is_correct(self):
        """The seeded _signed_payload cache equals a fresh encoding."""
        session, file_id, _ = build_session("batch-memo")
        requests = make_requests(session, file_id, 2)
        runs = session.verifier.run_audits(requests, session.provider)
        for run in runs:
            cached = run.transcript.signed_payload()
            fresh = dataclasses.replace(run.transcript).signed_payload()
            assert cached == fresh


class TestAuditDeferredMany:
    def test_matches_deferred_loop(self):
        loop_session, file_id, _ = build_session("many-pin")
        batch_session, _, _ = build_session("many-pin")
        for _ in range(6):
            loop_session.tpa.audit_deferred(
                file_id, loop_session.verifier, loop_session.provider, k=5
            )
        batch_session.tpa.audit_deferred_many(
            [file_id] * 6, batch_session.verifier, batch_session.provider, k=5
        )
        assert batch_session.tpa.pending_count == 6
        assert_equal_apart_from_proof(
            batch_session.tpa.flush_verdicts(),
            loop_session.tpa.flush_verdicts(),
            batch_session.verifier.public_key,
        )

    def test_mixed_population_verdicts_match_scalar_audit(self):
        """Corrupted verdicts pin to the scalar reference audit."""
        scalar_session, file_id, _ = build_session("many-mixed")
        batch_session, _, _ = build_session("many-mixed")
        scalar_session.provider.set_strategy(
            CorruptionAttack("home", 1.0, DeterministicRNG("mix"))
        )
        batch_session.provider.set_strategy(
            CorruptionAttack("home", 1.0, DeterministicRNG("mix"))
        )
        scalar = [
            scalar_audit(
                scalar_session.tpa,
                file_id,
                scalar_session.verifier,
                scalar_session.provider,
                k=5,
            )
            for _ in range(4)
        ]
        batch_session.tpa.audit_deferred_many(
            [file_id] * 4, batch_session.verifier, batch_session.provider, k=5
        )
        batch = batch_session.tpa.flush_verdicts()
        assert_equal_apart_from_proof(
            batch, scalar, batch_session.verifier.public_key
        )
        assert all(not outcome.verdict.accepted for outcome in batch)
        assert all(not outcome.verdict.macs_ok for outcome in batch)

    def test_rtt_and_region_overrides_forwarded(self):
        session, file_id, _ = build_session("many-overrides")
        session.tpa.audit_deferred_many(
            [file_id] * 2,
            session.verifier,
            session.provider,
            k=5,
            rtt_max_ms=0.001,
        )
        outcomes = session.tpa.flush_verdicts()
        assert all(not o.verdict.accepted for o in outcomes)
        assert all(not o.verdict.timing_ok for o in outcomes)

    def test_region_override_matches_scalar(self):
        """Replica-site audits pass the site's region; pin it both ways.

        A region around the verifier's own site accepts, a region on
        another continent fails the position check -- batched, one-shot
        and scalar reference audits agree on both.
        """
        scalar_session, file_id, _ = build_session("many-region")
        batch_session, _, _ = build_session("many-region")
        here = CircularRegion(
            centre=GeoPoint(-27.4698, 153.0251), radius_km=50.0
        )
        away = CircularRegion(
            centre=GeoPoint(1.3521, 103.8198, "Singapore"), radius_km=50.0
        )
        scalar = [
            scalar_audit(
                scalar_session.tpa,
                file_id,
                scalar_session.verifier,
                scalar_session.provider,
                k=5,
                region=region,
            )
            for region in (away, away, here)
        ]
        batch_session.tpa.audit_deferred_many(
            [file_id] * 2,
            batch_session.verifier,
            batch_session.provider,
            k=5,
            region=away,
        )
        batch = batch_session.tpa.flush_verdicts()
        batch.append(
            batch_session.tpa.audit(
                file_id,
                batch_session.verifier,
                batch_session.provider,
                k=5,
                region=here,
            )
        )
        assert_equal_apart_from_proof(
            batch, scalar, batch_session.verifier.public_key
        )
        assert [o.verdict.failure_reasons for o in batch] == [
            ["gps"], ["gps"], []
        ]

    def test_empty_file_list_is_noop(self):
        session, _, _ = build_session("many-empty")
        session.tpa.audit_deferred_many(
            [], session.verifier, session.provider
        )
        assert session.tpa.pending_count == 0

    def test_interleaves_with_scalar_deferred(self):
        """Mixing audit_deferred and audit_deferred_many keeps the
        nonce stream and submission order scalar-identical."""
        loop_session, file_id, _ = build_session("many-interleave")
        mixed_session, _, _ = build_session("many-interleave")
        for _ in range(4):
            loop_session.tpa.audit_deferred(
                file_id, loop_session.verifier, loop_session.provider, k=5
            )
        mixed_session.tpa.audit_deferred(
            file_id, mixed_session.verifier, mixed_session.provider, k=5
        )
        mixed_session.tpa.audit_deferred_many(
            [file_id] * 2, mixed_session.verifier, mixed_session.provider, k=5
        )
        mixed_session.tpa.audit_deferred(
            file_id, mixed_session.verifier, mixed_session.provider, k=5
        )
        assert_equal_apart_from_proof(
            mixed_session.tpa.flush_verdicts(),
            loop_session.tpa.flush_verdicts(),
            mixed_session.verifier.public_key,
        )
