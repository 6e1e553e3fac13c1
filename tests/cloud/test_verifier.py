"""The verifier device: challenges, timing, signatures, GPS."""

import dataclasses

import pytest

from repro.cloud.adversary import RelayAttack
from repro.cloud.provider import CloudProvider, DataCentre
from repro.cloud.verifier import VerifierDevice
from repro.core.messages import (
    AuditRequest,
    BatchProof,
    batch_root_message,
    transcript_payload,
)
from repro.core.verification import verify_transcript
from repro.crypto.rng import DeterministicRNG
from repro.crypto.schnorr import SchnorrKeyPair, schnorr_sign, schnorr_verify
from repro.errors import ConfigurationError
from repro.geo.datasets import city
from repro.geo.gps import GPSSpoofer
from repro.geo.coords import GeoPoint
from repro.geo.regions import CircularRegion
from repro.por.merkle import MerkleTree
from repro.por.parameters import TEST_PARAMS
from repro.por.setup import setup_file
from repro.storage.hdd import IBM_36Z15
from tests.conftest import (
    build_session,
    sealed_transcripts,
    transcript_verifies,
)


# Every test here pays a full POR setup in its fixtures: slow lane.
pytestmark = pytest.mark.slow

@pytest.fixture
def deployment(keys, sample_data, brisbane):
    provider = CloudProvider("acme")
    provider.add_datacentre(DataCentre("bne", brisbane))
    encoded = setup_file(sample_data, keys, b"vd-file", TEST_PARAMS)
    provider.upload(encoded, "bne")
    verifier = VerifierDevice(
        b"device-1", brisbane, rng=DeterministicRNG("device")
    )
    request = AuditRequest(
        file_id=b"vd-file", n_segments=encoded.n_segments, k=12, nonce=b"n" * 16
    )
    return provider, verifier, request, encoded


class TestChallengeGeneration:
    def test_distinct_in_range(self, deployment, rng):
        _, verifier, request, encoded = deployment
        challenge = verifier.generate_challenge(request, rng)
        assert len(challenge) == 12
        assert len(set(challenge)) == 12
        assert all(0 <= c < encoded.n_segments for c in challenge)

    def test_bad_k_rejected(self, deployment, rng):
        _, verifier, request, encoded = deployment
        bad = AuditRequest(
            file_id=b"vd-file",
            n_segments=encoded.n_segments,
            k=encoded.n_segments,
            nonce=b"n" * 16,
        )
        verifier.generate_challenge(bad, rng)  # k == n is allowed
        with pytest.raises(ConfigurationError):
            AuditRequest(
                file_id=b"f", n_segments=10, k=11, nonce=b"n" * 16
            )


class TestRunAudit:
    def test_transcript_shape(self, deployment):
        provider, verifier, request, _ = deployment
        transcript = verifier.run_audit(request, provider)
        assert transcript.k == 12
        assert transcript.file_id == b"vd-file"
        assert transcript.nonce == request.nonce
        assert len(set(transcript.challenge_indices())) == 12

    def test_rtts_include_disk_time(self, deployment):
        provider, verifier, request, _ = deployment
        transcript = verifier.run_audit(request, provider)
        # WD 2500JD lookup ~13 ms dominates; LAN adds a little.
        assert all(12.0 < r.rtt_ms < 16.0 for r in transcript.rounds)

    def test_signature_verifies(self, deployment):
        """A scalar audit is a tree of one: its root signature and its
        (empty) path verify, and a tampered payload leaves the path."""
        import dataclasses

        provider, verifier, request, _ = deployment
        transcript = verifier.run_audit(request, provider)
        proof = transcript.proof
        assert (proof.n_leaves, proof.leaf_index, proof.path) == (1, 0, ())
        assert schnorr_verify(
            verifier.public_key,
            batch_root_message(proof.root, proof.n_leaves),
            transcript.signature,
        )
        assert MerkleTree.verify_proof(
            proof.root, transcript.signed_payload(), 0, proof.path
        )
        assert transcript_verifies(transcript, verifier.public_key)
        tampered = dataclasses.replace(transcript, nonce=b"x" * 16)
        assert not MerkleTree.verify_proof(
            proof.root, tampered.signed_payload(), 0, proof.path
        )
        assert not transcript_verifies(tampered, verifier.public_key)

    def test_signature_breaks_on_tamper(self, deployment, keys):
        """Through the TPA's own check: the untampered transcript's
        signature holds, and a copy with another nonce does not."""
        provider, verifier, request, _ = deployment
        transcript = verifier.run_audit(request, provider)

        def signature_ok(candidate):
            return verify_transcript(
                candidate,
                request,
                verifier_public_key=verifier.public_key,
                mac_key=keys.mac_key,
                params=TEST_PARAMS,
                region=CircularRegion(centre=verifier.location, radius_km=50.0),
                rtt_max_ms=100.0,
            ).signature_ok

        assert signature_ok(transcript)
        tampered = dataclasses.replace(transcript, nonce=b"x" * 16)
        assert not signature_ok(tampered)

    def test_fresh_nonce_fresh_challenges(self, deployment):
        provider, verifier, _, encoded = deployment
        a = verifier.run_audit(
            AuditRequest(b"vd-file", encoded.n_segments, 12, b"n1" * 8), provider
        )
        b = verifier.run_audit(
            AuditRequest(b"vd-file", encoded.n_segments, 12, b"n2" * 8), provider
        )
        assert a.challenge_indices() != b.challenge_indices()

    def test_clock_advances(self, deployment):
        provider, verifier, request, _ = deployment
        before = verifier.clock.now_ms()
        verifier.run_audit(request, provider)
        # 12 rounds x ~13 ms disk time each.
        assert verifier.clock.now_ms() - before > 12 * 12.0

    def test_gps_position_reported(self, deployment, brisbane):
        provider, verifier, request, _ = deployment
        transcript = verifier.run_audit(request, provider)
        assert transcript.position.latitude == pytest.approx(brisbane.latitude)

    def test_spoofed_gps_reported(self, deployment):
        provider, verifier, request, _ = deployment
        fake = GeoPoint(1.35, 103.82)
        verifier.gps.attach_spoofer(GPSSpoofer(fake))
        transcript = verifier.run_audit(request, provider)
        assert transcript.position.latitude == pytest.approx(1.35, abs=0.01)


class TestSigningKey:
    def test_provider_cannot_resign_with_a_key_from_the_device_id(self):
        """A relaying provider's fast re-signed transcript is rejected.

        Every transcript carries its device id in the clear.  Were the
        device's key derived from it, a provider could rewrite the
        timings it was caught on and sign the result itself.
        """
        session, file_id, _ = build_session("forge")
        session.provider.add_datacentre(
            DataCentre("remote", city("singapore"), disk=IBM_36Z15)
        )
        session.provider.relocate(file_id, "remote")
        session.provider.set_strategy(RelayAttack("home", "remote"))
        request = session.tpa.make_request(file_id, 5)
        (relayed,) = sealed_transcripts(
            session.verifier,
            session.verifier.run_audits([request], session.provider),
        )
        record = session.tpa.record(file_id)

        def failure_reasons(transcript):
            return verify_transcript(
                transcript,
                request,
                verifier_public_key=session.verifier.public_key,
                mac_key=record.mac_key,
                params=record.params,
                region=session.sla.region,
                rtt_max_ms=session.sla.rtt_max_ms,
            ).failure_reasons

        assert failure_reasons(relayed) == ["timing"]
        fast = tuple(
            dataclasses.replace(round_, rtt_ms=0.5) for round_ in relayed.rounds
        )
        tree = MerkleTree([transcript_payload(
            relayed.device_id, relayed.file_id, relayed.nonce, fast,
            relayed.position,
        )])
        guessed = SchnorrKeyPair.generate(seed=relayed.device_id)
        forged = dataclasses.replace(
            relayed,
            rounds=fast,
            proof=BatchProof(tree.root, 1, 0, ()),
            signature=schnorr_sign(
                guessed.private, batch_root_message(tree.root, 1)
            ),
        )
        assert failure_reasons(forged) == ["signature"]
