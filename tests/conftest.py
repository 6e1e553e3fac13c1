"""Shared fixtures.

Small, fast parameter sets are the default everywhere: TEST_PARAMS uses
4-byte blocks and RS(15, 11) so a full setup pipeline runs in
milliseconds, while the (slower) paper parameters are exercised by a
handful of dedicated tests and the benchmarks.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.crypto.rng import DeterministicRNG
from repro.geo.coords import GeoPoint
from repro.por.parameters import TEST_PARAMS
from repro.por.setup import PORKeys


@pytest.fixture
def rng() -> DeterministicRNG:
    """A fresh deterministic RNG per test."""
    return DeterministicRNG("test-fixture-seed")


@pytest.fixture
def keys() -> PORKeys:
    """POR keys derived from a fixed master key."""
    return PORKeys.derive(b"master-key-0123456789abcdef-fixture")


@pytest.fixture
def small_params():
    """The fast test parameter set (4-byte blocks, RS(15, 11))."""
    return TEST_PARAMS


@pytest.fixture
def brisbane() -> GeoPoint:
    """The paper's home location."""
    return GeoPoint(-27.4698, 153.0251, "Brisbane")


@pytest.fixture
def sample_data(rng) -> bytes:
    """20 kB of pseudorandom file data."""
    return rng.fork("sample-data").random_bytes(20_000)


def build_session(seed: str = "session", file_bytes: int = 20_000):
    """Build a ready-to-audit session with one outsourced file.

    Shared by cloud/core/integration tests; returns (session, file_id,
    original_data).
    """
    from repro.core.session import GeoProofSession

    session = GeoProofSession.build(
        datacentre_location=GeoPoint(-27.4698, 153.0251),
        params=TEST_PARAMS,
        seed=seed,
    )
    data = DeterministicRNG(f"{seed}-data").random_bytes(file_bytes)
    session.outsource(b"test-file", data)
    return session, b"test-file", data


def scalar_audit(
    tpa,
    file_id: bytes,
    verifier,
    provider,
    *,
    k: int | None = None,
    rtt_max_ms: float | None = None,
    region=None,
):
    """The scalar reference audit the TPA's batch path is pinned to.

    Composes the three steps of Fig. 4 one at a time:
    ``tpa.make_request`` draws the fresh nonce,
    ``VerifierDevice.run_audit`` runs the timed rounds and signs, and
    ``verify_transcript`` checks MACs, signature, position and timing
    against the registered SLA (or the ``region`` / ``rtt_max_ms``
    overrides).  Nothing is counted on ``tpa``; only its nonce stream
    advances, exactly as one ``tpa.audit`` call would advance it.
    """
    from repro.cloud.tpa import AuditOutcome
    from repro.core.verification import verify_transcript

    record = tpa.record(file_id)
    request = tpa.make_request(file_id, k)
    started_ms = verifier.clock.now_ms()
    transcript = verifier.run_audit(request, provider)
    finished_ms = verifier.clock.now_ms()
    verdict = verify_transcript(
        transcript,
        request,
        verifier_public_key=verifier.public_key,
        mac_key=record.mac_key,
        params=record.params,
        region=region if region is not None else record.sla.region,
        rtt_max_ms=(
            rtt_max_ms if rtt_max_ms is not None else record.sla.rtt_max_ms
        ),
    )
    return AuditOutcome(
        request=request,
        transcript=transcript,
        verdict=verdict,
        started_ms=started_ms,
        finished_ms=finished_ms,
    )


def verdict_counts(tpa) -> dict[str, int]:
    """The verdicts ``tpa`` has settled, by kind, off its metrics snapshot."""
    for family in tpa.metrics.snapshot()["families"]:
        if family["name"] == "repro_tpa_verdicts_total":
            return {
                series["labels"]["verdict"]: int(series["value"])
                for series in family["series"]
            }
    return {}


class FailsAtLookup:
    """Serves through ``provider`` but refuses the listed lookups.

    Lookups are counted from 1 across every request, so a batch and the
    scalar loop, which make the same lookups in the same order, fail at
    the same one.
    """

    def __init__(self, provider, failing):
        self.provider = provider
        self.failing = set(failing)
        self.n_lookups = 0

    def handle_request(self, file_id, index):
        from repro.errors import StorageUnavailableError

        self.n_lookups += 1
        if self.n_lookups in self.failing:
            raise StorageUnavailableError(f"lookup {self.n_lookups} refused")
        return self.provider.handle_request(file_id, index)


def sealed_transcripts(verifier, runs):
    """Seal one ``run_audits`` call's completed runs as one tree.

    A run stays unsigned until its device seals it.  This seals every
    :class:`~repro.cloud.verifier.AuditRun` in ``runs`` at once, as a
    TPA flush does, skips the failed requests' errors, and returns the
    signed transcripts in run order.
    """
    from repro.errors import ReproError

    return verifier.seal(
        [run.handle for run in runs if not isinstance(run, ReproError)]
    )


def transcript_verifies(transcript, public_key) -> bool:
    """Step 1 by hand: the payload's path to its root, then the root signature."""
    from repro.core.messages import batch_root_message
    from repro.crypto.schnorr import schnorr_verify
    from repro.por.merkle import MerkleTree

    proof = transcript.proof
    return MerkleTree.verify_proof(
        proof.root, transcript.signed_payload(), proof.leaf_index, proof.path
    ) and schnorr_verify(
        public_key,
        batch_root_message(proof.root, proof.n_leaves),
        transcript.signature,
    )


def assert_equal_apart_from_proof(actual, expected, public_key) -> None:
    """Pin transcripts or outcomes that differ only in how they were signed.

    The device signs one hash tree per seal, so a batch of n audits
    carries one root signature where the scalar loop signs n trees of
    one: only the batch proof and the signature may differ.
    Everything else -- payload bytes, verdict, clock readings, request
    and nonce -- must be exactly equal, and every transcript on both
    sides must verify under ``public_key``.
    """
    from repro.cloud.tpa import AuditOutcome

    def transcript_of(item):
        return item.transcript if isinstance(item, AuditOutcome) else item

    def unsigned(item):
        transcript = dataclasses.replace(
            transcript_of(item), proof=None, signature=None
        )
        if isinstance(item, AuditOutcome):
            return dataclasses.replace(item, transcript=transcript)
        return transcript

    actual, expected = list(actual), list(expected)
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        for item in (got, want):
            assert transcript_verifies(transcript_of(item), public_key)
        assert (
            transcript_of(got).signed_payload()
            == transcript_of(want).signed_payload()
        )
        assert unsigned(got) == unsigned(want)
