"""Sealing: a verifier device signs one tree per seal, and only its runs.

``VerifierDevice.run_audits`` signs nothing; it keeps each measured run
under a handle until ``VerifierDevice.seal`` signs one hash tree over
the runs it names.  The TPA seals once per verifier per verdict flush,
so a fleet site's settle and a daemon flush each carry one signed root.  These
tests pin what a seal may and may not do, and count the signatures
through ``repro.cloud.verifier.schnorr_sign``, the name the repo
benchmark traces.  Small files keep them in the fast lane.
"""

import pytest

import repro.cloud.verifier as verifier_module
from repro.cloud.verifier import VerifierDevice
from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError, ReproError
from repro.fleet import AuditFleet
from repro.geo.datasets import city
from tests.conftest import (
    FailsAtLookup,
    build_session,
    transcript_verifies,
    verdict_counts,
)


@pytest.fixture
def signatures(monkeypatch):
    """The root messages the devices sign while the test runs."""
    signed = []
    sign = verifier_module.schnorr_sign

    def counting_sign(private, message):
        signed.append(message)
        return sign(private, message)

    monkeypatch.setattr(verifier_module, "schnorr_sign", counting_sign)
    return signed


@pytest.fixture
def session():
    """A session with one small file, and the file's id."""
    session, file_id, _ = build_session("seal", file_bytes=2_000)
    return session, file_id


def second_verifier(session, seed="second-device"):
    """Another device on the same site, with a key of its own."""
    return VerifierDevice(
        b"verifier-2",
        session.verifier.location,
        rng=DeterministicRNG(seed),
        clock=session.verifier.clock,
    )


def measured(session, file_id, n, verifier=None):
    """``n`` unsealed runs of k=3 on ``verifier`` (default: the session's)."""
    verifier = verifier if verifier is not None else session.verifier
    requests = [session.tpa.make_request(file_id, 3) for _ in range(n)]
    return verifier.run_audits(requests, session.provider)


def two_by_two_fleet():
    """Event engine, two providers with two sites each, four files a site."""
    fleet = AuditFleet(seed="seal-fleet", batch_size=4, engine="event")
    data_rng = DeterministicRNG("seal-fleet-data")
    for provider, sites in (
        ("p1", ("brisbane", "sydney")),
        ("p2", ("melbourne", "perth")),
    ):
        fleet.add_provider(provider, [(site, city(site)) for site in sites])
        for site in sites:
            for i in range(4):
                fleet.register(
                    tenant=provider,
                    provider=provider,
                    datacentre=site,
                    file_id=f"{site}-{i}".encode(),
                    data=data_rng.fork(f"{site}-{i}").random_bytes(2_000),
                )
    return fleet


class TestOneSignaturePerFlush:
    def test_fleet_signs_once_per_site_settle(self, signatures):
        # Each of the 4 sites stages 96 runs: one settle at 64 queued
        # runs, one for the other 32 at the end of the run.
        fleet = two_by_two_fleet()
        report = fleet.run(hours=12.0)
        assert [lane.n_audits for lane in report.lanes] == [96] * 4
        assert len(signatures) == 8
        assert dict(report.verdict_breakdown) == {"accepted": report.n_audits}

    def test_daemon_flush_signs_once(self, session, signatures):
        session, file_id = session
        tpa = session.tpa
        pending = tpa.audit_deferred_many(
            [(file_id, 3)] * 8, session.verifier, session.provider
        )
        assert signatures == []
        outcomes = tpa.flush_verdicts(pending)
        assert len(signatures) == 1
        assert len({outcome.transcript.proof.root for outcome in outcomes}) == 1
        assert all(outcome.verdict.accepted for outcome in outcomes)

        tpa.audit(file_id, session.verifier, session.provider, k=3)
        assert len(signatures) == 2


class TestSeal:
    def test_dropped_runs_leave_no_body(self, session):
        session, file_id = session
        verifier = session.verifier
        pending = [
            session.tpa.audit_deferred(
                file_id, verifier, session.provider, k=3
            )
            for _ in range(50)
        ]
        assert len(verifier._unsealed) == 50
        del pending
        assert len(verifier._unsealed) == 0

    def test_seal_returns_signed_transcripts_in_handle_order(
        self, session, signatures
    ):
        session, file_id = session
        verifier = session.verifier
        requests = [session.tpa.make_request(file_id, 3) for _ in range(4)]
        runs = verifier.run_audits(requests, session.provider)
        transcripts = verifier.seal([run.handle for run in reversed(runs)])
        assert len(signatures) == 1
        assert [t.nonce for t in transcripts] == [
            request.nonce for request in reversed(requests)
        ]
        assert [t.proof.leaf_index for t in transcripts] == [0, 1, 2, 3]
        assert all(t.proof.n_leaves == 4 for t in transcripts)
        assert all(
            transcript_verifies(t, verifier.public_key) for t in transcripts
        )
        assert verifier.seal([]) == []
        assert len(signatures) == 1

    def test_handle_sealed_twice_raises(self, session, signatures):
        session, file_id = session
        verifier = session.verifier
        first, second, third = (run.handle for run in measured(session, file_id, 3))
        verifier.seal([first])
        assert len(signatures) == 1
        with pytest.raises(ConfigurationError, match="handle 1"):
            verifier.seal([second, first])
        with pytest.raises(ConfigurationError, match="handle 1"):
            verifier.seal([third, third])
        assert len(signatures) == 1
        transcripts = verifier.seal([second, third])
        assert len(signatures) == 2
        assert all(
            transcript_verifies(t, verifier.public_key) for t in transcripts
        )

    def test_handle_of_another_device_raises(self, session, signatures):
        session, file_id = session
        verifier, other = session.verifier, second_verifier(session)
        mine = measured(session, file_id, 2)
        theirs = measured(session, file_id, 1, verifier=other)
        with pytest.raises(ConfigurationError, match="handle 2"):
            verifier.seal([mine[0].handle, mine[1].handle, theirs[0].handle])
        assert signatures == []
        (their_transcript,) = other.seal([theirs[0].handle])
        mine_transcripts = verifier.seal([run.handle for run in mine])
        assert len(signatures) == 2
        assert transcript_verifies(their_transcript, other.public_key)
        assert all(
            transcript_verifies(t, verifier.public_key)
            for t in mine_transcripts
        )

    def test_bytes_and_transcripts_are_not_handles(self, session, signatures):
        session, file_id = session
        verifier = session.verifier
        (transcript,) = verifier.seal([measured(session, file_id, 1)[0].handle])
        for impostor in (transcript.signed_payload(), transcript, None):
            with pytest.raises(ConfigurationError, match="handle 0"):
                verifier.seal([impostor])
        assert len(signatures) == 1

    def test_flush_mixing_two_verifiers_gives_one_root_each(
        self, session, signatures
    ):
        session, file_id = session
        tpa, provider = session.tpa, session.provider
        verifiers = [session.verifier, second_verifier(session)]
        pending = [
            tpa.audit_deferred(file_id, verifiers[i % 2], provider, k=3)
            for i in range(6)
        ]
        outcomes = tpa.flush_verdicts(pending)
        assert len(signatures) == 2
        assert all(outcome.verdict.signature_ok for outcome in outcomes)
        assert all(outcome.verdict.accepted for outcome in outcomes)
        for parity, verifier in enumerate(verifiers):
            mine = outcomes[parity::2]
            assert len({o.transcript.proof.root for o in mine}) == 1
            assert [o.transcript.proof.leaf_index for o in mine] == [0, 1, 2]
            assert all(
                o.transcript.device_id == verifier.device_id for o in mine
            )
        assert (
            outcomes[0].transcript.proof.root
            != outcomes[1].transcript.proof.root
        )

    def test_second_flush_raises_before_counting(self, session, signatures):
        session, file_id = session
        tpa = session.tpa
        first, second, fresh = [
            tpa.audit_deferred(file_id, session.verifier, session.provider, k=3)
            for _ in range(3)
        ]
        tpa.flush_verdicts([first, second])
        counts = tpa.metrics.snapshot()
        with pytest.raises(ConfigurationError):
            tpa.flush_verdicts([fresh, first])
        with pytest.raises(ConfigurationError):
            tpa.flush_verdicts([fresh, fresh])
        assert tpa.metrics.snapshot() == counts
        assert len(signatures) == 1
        # Neither refused flush spent the fresh run.
        (outcome,) = tpa.flush_verdicts([fresh])
        assert outcome.verdict.accepted
        assert len(signatures) == 2

    def test_refused_mixed_flush_spends_no_run(self, session, signatures):
        """A later verifier's stale run refuses the whole flush before
        an earlier verifier's run is sealed, so that run stays
        settleable."""
        session, file_id = session
        tpa, provider = session.tpa, session.provider
        a = tpa.audit_deferred(file_id, session.verifier, provider, k=3)
        b = tpa.audit_deferred(file_id, second_verifier(session), provider, k=3)
        tpa.flush_verdicts([b])
        counts = tpa.metrics.snapshot()
        accepted = verdict_counts(tpa)["accepted"]
        with pytest.raises(ConfigurationError, match="handle 0"):
            tpa.flush_verdicts([a, b])
        assert tpa.metrics.snapshot() == counts
        assert len(signatures) == 1
        (outcome,) = tpa.flush_verdicts([a])
        assert outcome.verdict.accepted
        assert outcome.request == a.request
        assert verdict_counts(tpa)["accepted"] == accepted + 1
        assert len(signatures) == 2

    def test_failed_request_seals_only_the_survivors(self, session, signatures):
        session, file_id = session
        verifier = session.verifier
        requests = [session.tpa.make_request(file_id, 3) for _ in range(4)]
        # The second request's second lookup, the fifth overall.
        runs = verifier.run_audits(
            requests, FailsAtLookup(session.provider, [5])
        )
        assert [isinstance(run, ReproError) for run in runs] == [
            False, True, False, False
        ]
        transcripts = verifier.seal(
            [run.handle for run in runs if not isinstance(run, ReproError)]
        )
        assert len(signatures) == 1
        assert [t.nonce for t in transcripts] == [
            requests[i].nonce for i in (0, 2, 3)
        ]
        assert all(t.proof.n_leaves == 3 for t in transcripts)
        assert len(verifier._unsealed) == 0
