"""A provider reply with a non-finite time fails closed.

The verifier feeds each reply's ``elapsed_ms`` straight into its clock.
A relay that reports 1 ms for its first lookup and NaN after used to
be accepted: the clock went NaN, every later round's RTT was NaN, and
``max()`` kept the finite first round, which passed the budget.  The
device clock then read NaN for good, so honest audits failed after.
"""

import dataclasses
import math

import pytest

from repro import GeoProofSession, city
from repro.cloud.adversary import RelayAttack
from repro.cloud.provider import DataCentre
from repro.core.verification import (
    TranscriptVerification,
    verify_transcript,
    verify_transcripts,
)
from repro.crypto.rng import DeterministicRNG
from repro.errors import ClockError
from repro.netsim.clock import SimClock
from repro.por.parameters import TEST_PARAMS

# Every test here pays a 20 kB POR setup: slow lane.
pytestmark = pytest.mark.slow


class NaNAfterFirstLookup(RelayAttack):
    """A relay to Singapore that reports 1 ms, then NaN, per lookup."""

    def __init__(self):
        super().__init__("home", "singapore")
        self.lookups = 0

    def handle_request(self, provider, file_id, index):
        served = super().handle_request(provider, file_id, index)
        self.lookups += 1
        elapsed_ms = 1.0 if self.lookups == 1 else math.nan
        return dataclasses.replace(served, elapsed_ms=elapsed_ms)


class UncheckedClock(SimClock):
    """A clock double that takes any step, finite or not."""

    def advance(self, delta_ms):
        self._now_ms += delta_ms
        return self._now_ms


def relocated_session(seed):
    """A Brisbane contract whose file the provider moved to Singapore."""
    session = GeoProofSession.build(
        datacentre_location=city("brisbane"), params=TEST_PARAMS, seed=seed
    )
    session.outsource(b"f", DeterministicRNG(f"{seed}-data").random_bytes(20_000))
    session.provider.add_datacentre(DataCentre("singapore", city("singapore")))
    session.provider.relocate(b"f", "singapore")
    return session


class TestNaNReply:
    def test_plain_relay_is_rejected_on_timing(self):
        session = relocated_session("nan")
        session.provider.set_strategy(RelayAttack("home", "singapore"))
        verdict = session.audit(b"f", k=10).verdict
        assert verdict.failure_reasons == ["timing"]

    def test_nan_reply_raises_and_leaves_the_clock_usable(self):
        session = relocated_session("nan")
        session.provider.set_strategy(NaNAfterFirstLookup())
        with pytest.raises(ClockError):
            session.audit(b"f", k=10)
        assert math.isfinite(session.verifier.clock.now_ms())
        # The next honest audit on the same session is accepted.
        session.provider.set_strategy(None)
        session.provider.relocate(b"f", "home")
        assert session.audit(b"f", k=10).verdict.accepted

    def test_nan_round_fails_timing_on_both_verify_paths(self):
        session = relocated_session("nan-transcript")
        session.verifier.clock = UncheckedClock(session.verifier.clock.now_ms())
        session.provider.set_strategy(NaNAfterFirstLookup())
        record = session.tpa.record(b"f")
        request = session.tpa.make_request(b"f", 10)
        transcript = session.verifier.run_audit(request, session.provider)
        assert math.isfinite(transcript.rounds[0].rtt_ms)
        assert math.isnan(transcript.rounds[-1].rtt_ms)
        job = TranscriptVerification(
            transcript=transcript,
            request=request,
            verifier_public_key=session.verifier.public_key,
            mac_key=record.mac_key,
            params=record.params,
            region=session.sla.region,
            rtt_max_ms=session.sla.rtt_max_ms,
        )
        scalar = verify_transcript(
            transcript,
            request,
            verifier_public_key=job.verifier_public_key,
            mac_key=job.mac_key,
            params=job.params,
            region=job.region,
            rtt_max_ms=job.rtt_max_ms,
        )
        (batch,) = verify_transcripts([job])
        for verdict in (scalar, batch):
            assert verdict.failure_reasons == ["timing"]
            assert math.isnan(verdict.max_rtt_ms)
        # NaN never equals itself, so compare the rest field for field.
        assert dataclasses.replace(scalar, max_rtt_ms=0.0) == dataclasses.replace(
            batch, max_rtt_ms=0.0
        )
