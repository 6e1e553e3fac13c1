"""End-to-end scenarios across the whole stack."""

import pytest

from repro.cloud.adversary import CorruptionAttack, RelayAttack
from repro.cloud.provider import DataCentre
from repro.core.session import GeoProofSession
from repro.crypto.rng import DeterministicRNG
from repro.geo.coords import GeoPoint
from repro.geo.datasets import city
from repro.geo.gps import GPSSpoofer
from repro.geo.regions import PolygonRegion
from repro.geo.regions import AUSTRALIA_OUTLINE
from repro.por.parameters import TEST_PARAMS
from repro.por.setup import extract_file
from repro.storage.hdd import IBM_36Z15
from tests.conftest import build_session


# Every test here pays a full POR setup in its fixtures: slow lane.
pytestmark = pytest.mark.slow

class TestHonestLifecycle:
    def test_outsource_audit_extract(self):
        """The full data-owner story: upload, audit repeatedly, recover."""
        session, file_id, data = build_session("e2e-honest")
        outcomes = [session.audit(file_id, k=10) for _ in range(10)]
        assert all(o.verdict.accepted for o in outcomes)
        encoded = session.provider.home_of(file_id).server.store.file_meta(file_id)
        assert extract_file(encoded, session.files[file_id].keys) == data

    def test_australia_sla_region(self):
        """An SLA written as 'inside Australia' (polygon region)."""
        session = GeoProofSession.build(
            datacentre_location=city("sydney"),
            region=AUSTRALIA_OUTLINE,
            params=TEST_PARAMS,
            seed="e2e-au",
        )
        session.outsource(b"f", b"payload" * 500)
        assert session.audit(b"f", k=10).verdict.accepted

    def test_multiple_files_independent(self):
        session, _, _ = build_session("e2e-multi")
        session.outsource(b"second-file", b"other-data" * 300)
        a = session.audit(b"test-file", k=5)
        b = session.audit(b"second-file", k=5)
        assert a.verdict.accepted and b.verdict.accepted


class TestSLAViolationStories:
    def test_relocation_abroad_caught_by_timing(self):
        """The headline scenario: data moved to Singapore, audit fails."""
        session, file_id, _ = build_session("e2e-relay")
        session.provider.add_datacentre(
            DataCentre("sin", city("singapore"), disk=IBM_36Z15)
        )
        session.provider.relocate(file_id, "sin")
        session.provider.set_strategy(RelayAttack("home", "sin"))
        outcome = session.audit(file_id, k=15)
        assert not outcome.verdict.accepted
        assert outcome.verdict.failure_reasons == ["timing"]
        # Transcript's own max RTT implies a distance far beyond the SLA.
        assert outcome.verdict.max_rtt_ms > 50.0

    def test_bitrot_caught_by_macs_then_healed_by_extraction(self):
        """Corruption detected in audit AND survivable at extraction."""
        session, file_id, data = build_session("e2e-bitrot")
        store = session.provider.home_of(file_id).server.store
        from repro.por.file_format import Segment

        n = session.files[file_id].n_segments
        for index in range(0, n, 50):  # 2 % of segments
            old = store.get_segment(file_id, index)
            store.overwrite_segment(
                file_id, Segment(index, b"\x00" * len(old.payload), old.tag)
            )
        detections = sum(
            1
            for _ in range(10)
            if not session.audit(file_id, k=60).verdict.accepted
        )
        assert detections >= 5  # theory: 1-(1-0.02)^60 ~ 0.70 per audit
        encoded = store.file_meta(file_id)
        # file_meta reflects mutations through shared Segment objects?
        # Rebuild from the live segment map to be explicit:
        from repro.por.file_format import EncodedFile

        live = EncodedFile(
            file_id=file_id,
            params=encoded.params,
            segments=[store.get_segment(file_id, i) for i in range(n)],
            original_length=encoded.original_length,
            n_data_blocks=encoded.n_data_blocks,
        )
        assert extract_file(live, session.files[file_id].keys) == data

    def test_gps_spoofing_alone_insufficient(self):
        """Spoofed GPS makes position look fine but timing still betrays
        a relay -- the two checks are independent layers."""
        session, file_id, _ = build_session("e2e-spoof")
        session.provider.add_datacentre(
            DataCentre("sin", city("singapore"), disk=IBM_36Z15)
        )
        session.provider.relocate(file_id, "sin")
        session.provider.set_strategy(RelayAttack("home", "sin"))
        # Spoof the device's GPS to stay "home" -- irrelevant, since the
        # region check was passing anyway; timing still fails.
        session.verifier.gps.attach_spoofer(
            GPSSpoofer(session.verifier.location)
        )
        outcome = session.audit(file_id, k=10)
        assert not outcome.verdict.accepted
        assert "timing" in outcome.verdict.failure_reasons

    def test_device_relocation_caught_by_gps(self):
        """If the provider physically moves the verifier device with the
        data, the GPS check (step 2) catches it."""
        session, file_id, _ = build_session("e2e-move-device")
        # Move the device to Singapore (honest GPS): region check fails.
        session.verifier.gps.true_position = city("singapore")
        outcome = session.audit(file_id, k=5)
        assert not outcome.verdict.accepted
        assert "gps" in outcome.verdict.failure_reasons


class TestCumulativeDetection:
    def test_repeated_audits_drive_detection_up(self):
        """'Detection of file corruption is a cumulative process.'"""
        session, file_id, _ = build_session("e2e-cumulative")
        session.provider.set_strategy(
            CorruptionAttack("home", 0.03, DeterministicRNG("adv"))
        )
        caught_within = None
        for audit_number in range(1, 31):
            if not session.audit(file_id, k=25).verdict.accepted:
                caught_within = audit_number
                break
        # Per-audit p ~ 1-(1-0.03)^25 ~ 0.53 -> catch within 30 w.h.p.
        assert caught_within is not None
