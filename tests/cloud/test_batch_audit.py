"""Batch protocol plane: run_audits / audit_deferred_many pins.

The daemon's throughput path (one ``fork_many`` sweep, bulk LAN
jitter reads, one signed hash-tree root per seal) must be
*request-for-request identical* to the scalar protocol loop -- same
payloads, same clock readings, same verdicts.  Only the batch proof
and the signature differ (one tree of n leaves against n trees of
one), and every transcript on both sides must verify.  A
``run_audits`` call signs nothing, so these tests seal its runs
through ``sealed_transcripts``.  These tests pin
that equivalence, including under adversarial providers, with a
zero-jitter LAN, and when a request fails partway: it fails alone, as
it does in the loop.
"""

import dataclasses

import pytest

from repro.cloud.adversary import CorruptionAttack, RelayAttack
from repro.cloud.provider import DataCentre
from repro.core.messages import AuditRequest
from repro.crypto.rng import DeterministicRNG
from repro.errors import ReproError, StorageUnavailableError
from repro.geo.coords import GeoPoint
from repro.geo.regions import CircularRegion
from repro.netsim.latency import LANModel
from tests.conftest import (
    FailsAtLookup,
    assert_equal_apart_from_proof,
    build_session,
    scalar_audit,
    sealed_transcripts,
    verdict_counts,
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
        sealed_transcripts(batch_session.verifier, runs),
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


def scalar_loop_isolating(session, requests, provider):
    """The run_audit loop with each raising call caught: per request,
    its error or (transcript, started, finished)."""
    clock = session.verifier.clock
    entries = []
    for request in requests:
        started = clock.now_ms()
        try:
            transcript = session.verifier.run_audit(request, provider)
        except ReproError as exc:
            entries.append(exc)
            continue
        entries.append((transcript, started, clock.now_ms()))
    return entries


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

    def test_zero_jitter_lan(self):
        """jitter_ms=0 draws nothing from the jitter stream."""
        scalar_session, file_id, _ = build_session("batch-nojit")
        batch_session, _, _ = build_session("batch-nojit")
        scalar_session.verifier.lan = LANModel(jitter_ms=0.0)
        batch_session.verifier.lan = LANModel(jitter_ms=0.0)
        requests = make_requests(scalar_session, file_id, 4)
        assert_runs_match_scalar(scalar_session, batch_session, requests)

    def test_empty_batch(self):
        session, _, _ = build_session("batch-empty")
        before = session.verifier.clock.now_ms()
        assert session.verifier.run_audits([], session.provider) == []
        assert session.verifier.clock.now_ms() == before

    def test_failed_request_fails_alone(self):
        """The third of four k=5 requests fails on its third lookup
        (the 13th overall): the other runs equal the loop's, and both
        clocks end at the same reading."""
        scalar_session, file_id, _ = build_session("batch-isolate")
        batch_session, _, _ = build_session("batch-isolate")
        requests = make_requests(scalar_session, file_id, 4)
        scalar = scalar_loop_isolating(
            scalar_session,
            requests,
            FailsAtLookup(scalar_session.provider, [13]),
        )
        runs = batch_session.verifier.run_audits(
            requests, FailsAtLookup(batch_session.provider, [13])
        )
        assert [isinstance(entry, ReproError) for entry in scalar] == [
            False, False, True, False
        ]
        assert [isinstance(run, ReproError) for run in runs] == [
            False, False, True, False
        ]
        assert str(runs[2]) == str(scalar[2]) == "lookup 13 refused"
        completed = [0, 1, 3]
        transcripts = sealed_transcripts(batch_session.verifier, runs)
        assert_equal_apart_from_proof(
            transcripts,
            [scalar[i][0] for i in completed],
            batch_session.verifier.public_key,
        )
        for i, transcript in zip(completed, transcripts):
            assert runs[i].started_ms == scalar[i][1]
            assert runs[i].finished_ms == scalar[i][2]
            assert transcript.proof.n_leaves == 3
        assert (
            batch_session.verifier.clock.now_ms()
            == scalar_session.verifier.clock.now_ms()
        )

        # Only a ReproError fails a request alone; a bug surfaces.
        class Broken:
            def handle_request(self, file_id, index):
                raise ZeroDivisionError("bug")

        with pytest.raises(ZeroDivisionError):
            batch_session.verifier.run_audits(requests, Broken())

    def test_every_request_failing_returns_only_errors(self):
        scalar_session, file_id, _ = build_session("batch-all-fail")
        batch_session, _, _ = build_session("batch-all-fail")
        requests = make_requests(scalar_session, file_id, 3)
        # The first lookup of each request.
        failing = [1, 2, 3]
        scalar = scalar_loop_isolating(
            scalar_session,
            requests,
            FailsAtLookup(scalar_session.provider, failing),
        )
        runs = batch_session.verifier.run_audits(
            requests, FailsAtLookup(batch_session.provider, failing)
        )
        assert all(isinstance(entry, ReproError) for entry in scalar)
        assert [str(run) for run in runs] == [str(entry) for entry in scalar]
        assert all(isinstance(run, StorageUnavailableError) for run in runs)
        assert (
            batch_session.verifier.clock.now_ms()
            == scalar_session.verifier.clock.now_ms()
            > 0.0
        )

    def test_batch_payload_memo_is_correct(self):
        """The seeded _signed_payload cache equals a fresh encoding."""
        session, file_id, _ = build_session("batch-memo")
        requests = make_requests(session, file_id, 2)
        runs = session.verifier.run_audits(requests, session.provider)
        for transcript in sealed_transcripts(session.verifier, runs):
            cached = transcript.signed_payload()
            fresh = dataclasses.replace(transcript).signed_payload()
            assert cached == fresh


class TestAuditDeferredMany:
    def test_matches_deferred_loop(self):
        loop_session, file_id, _ = build_session("many-pin")
        batch_session, _, _ = build_session("many-pin")
        loop = [
            loop_session.tpa.audit_deferred(
                file_id, loop_session.verifier, loop_session.provider, k=5
            )
            for _ in range(6)
        ]
        batch = batch_session.tpa.audit_deferred_many(
            [(file_id, 5)] * 6, batch_session.verifier, batch_session.provider
        )
        assert len(batch) == 6
        assert_equal_apart_from_proof(
            batch_session.tpa.flush_verdicts(batch),
            loop_session.tpa.flush_verdicts(loop),
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
        batch = batch_session.tpa.flush_verdicts(
            batch_session.tpa.audit_deferred_many(
                [(file_id, 5)] * 4,
                batch_session.verifier,
                batch_session.provider,
            )
        )
        assert_equal_apart_from_proof(
            batch, scalar, batch_session.verifier.public_key
        )
        assert all(not outcome.verdict.accepted for outcome in batch)
        assert all(not outcome.verdict.macs_ok for outcome in batch)

    def test_rtt_and_region_overrides_forwarded(self):
        session, file_id, _ = build_session("many-overrides")
        outcomes = session.tpa.flush_verdicts([
            session.tpa.audit_deferred(
                file_id,
                session.verifier,
                session.provider,
                k=5,
                rtt_max_ms=0.001,
            )
            for _ in range(2)
        ])
        assert all(not o.verdict.accepted for o in outcomes)
        assert all(not o.verdict.timing_ok for o in outcomes)

    def test_region_override_matches_scalar(self):
        """Replica-site audits pass the site's region; pin it both ways.

        A region around the verifier's own site accepts, a region on
        another continent fails the position check -- deferred, one-shot
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
        batch = batch_session.tpa.flush_verdicts([
            batch_session.tpa.audit_deferred(
                file_id,
                batch_session.verifier,
                batch_session.provider,
                k=5,
                region=away,
            )
            for _ in range(2)
        ])
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
        before = session.verifier.clock.now_ms()
        assert session.tpa.audit_deferred_many(
            [], session.verifier, session.provider
        ) == []
        assert session.verifier.clock.now_ms() == before
        assert verdict_counts(session.tpa) == {"accepted": 0, "rejected": 0}

    def test_interleaves_with_scalar_deferred(self):
        """Mixing audit_deferred and audit_deferred_many keeps the
        nonce stream and submission order scalar-identical."""
        loop_session, file_id, _ = build_session("many-interleave")
        mixed_session, _, _ = build_session("many-interleave")
        loop = [
            loop_session.tpa.audit_deferred(
                file_id, loop_session.verifier, loop_session.provider, k=5
            )
            for _ in range(4)
        ]
        mixed = [
            mixed_session.tpa.audit_deferred(
                file_id, mixed_session.verifier, mixed_session.provider, k=5
            )
        ]
        mixed += mixed_session.tpa.audit_deferred_many(
            [(file_id, 5)] * 2, mixed_session.verifier, mixed_session.provider
        )
        mixed.append(
            mixed_session.tpa.audit_deferred(
                file_id, mixed_session.verifier, mixed_session.provider, k=5
            )
        )
        assert_equal_apart_from_proof(
            mixed_session.tpa.flush_verdicts(mixed),
            loop_session.tpa.flush_verdicts(loop),
            mixed_session.verifier.public_key,
        )

    def test_refused_and_failed_orders_fail_alone(self):
        """An unknown file and an out-of-range k are refused before any
        nonce is drawn; a failed lookup fails only its order.  The
        other orders settle to the scalar reference audits."""
        scalar_session, file_id, _ = build_session("many-isolate")
        batch_session, _, _ = build_session("many-isolate")
        # Orders 1, 4 and 5 run (k=5, 5 and the SLA minimum); order 4's
        # second lookup, the 7th overall, is refused.
        scalar_provider = FailsAtLookup(scalar_session.provider, [7])
        scalar = []
        for k in (5, 5, None):
            try:
                scalar.append(scalar_audit(
                    scalar_session.tpa,
                    file_id,
                    scalar_session.verifier,
                    scalar_provider,
                    k=k,
                ))
            except ReproError as exc:
                scalar.append(exc)
        entries = batch_session.tpa.audit_deferred_many(
            [
                (file_id, 5),
                (b"ghost", 5),
                (file_id, 10**9),
                (file_id, 5),
                (file_id, None),
            ],
            batch_session.verifier,
            FailsAtLookup(batch_session.provider, [7]),
        )
        assert [type(entry).__name__ for entry in entries] == [
            "PendingAudit",
            "ConfigurationError",
            "ConfigurationError",
            "StorageUnavailableError",
            "PendingAudit",
        ]
        assert str(entries[1]) == "file b'ghost' not registered"
        assert str(entries[2]).startswith("k must be in 1..")
        assert str(entries[3]) == str(scalar[1]) == "lookup 7 refused"
        outcomes = batch_session.tpa.flush_verdicts([entries[0], entries[4]])
        assert_equal_apart_from_proof(
            outcomes,
            [scalar[0], scalar[2]],
            batch_session.verifier.public_key,
        )
        assert verdict_counts(batch_session.tpa) == {"accepted": 2, "rejected": 0}
