"""Session orchestration: build, outsource, audit."""

import pytest

from repro.core.session import GeoProofSession
from repro.errors import ConfigurationError
from repro.geo.coords import GeoPoint
from repro.geo.regions import PolygonRegion
from repro.por.parameters import TEST_PARAMS
from repro.por.setup import extract_file, setup_file
from tests.conftest import build_session, verdict_counts


# Every test here pays a full POR setup in its fixtures: slow lane.
pytestmark = pytest.mark.slow

class TestBuild:
    def test_default_region_around_datacentre(self, brisbane):
        session = GeoProofSession.build(datacentre_location=brisbane)
        assert session.sla.region.contains(brisbane)

    def test_custom_region(self, brisbane):
        box = PolygonRegion(
            [GeoPoint(-40.0, 110.0), GeoPoint(-40.0, 155.0),
             GeoPoint(-10.0, 155.0), GeoPoint(-10.0, 110.0)]
        )
        session = GeoProofSession.build(datacentre_location=brisbane, region=box)
        assert session.sla.region is box

    def test_sla_segment_bytes_matches_params(self, brisbane):
        session = GeoProofSession.build(
            datacentre_location=brisbane, params=TEST_PARAMS
        )
        assert session.sla.segment_bytes == (
            TEST_PARAMS.segment_bytes + TEST_PARAMS.tag_bytes
        )


class TestOutsource:
    def test_returns_record(self):
        session, file_id, data = build_session("sess-record")
        record = session.files[file_id]
        assert record.original_bytes == len(data)
        assert record.stored_bytes > record.original_bytes
        assert record.n_segments > 0

    def test_duplicate_rejected(self):
        session, file_id, _ = build_session("sess-dup")
        with pytest.raises(ConfigurationError):
            session.outsource(file_id, b"other data")

    def test_data_retrievable_from_provider(self):
        """What the provider stores is sufficient to extract the file."""
        session, file_id, data = build_session("sess-extract")
        store = session.provider.home_of(file_id).server.store
        encoded = store.file_meta(file_id)
        assert extract_file(encoded, session.files[file_id].keys) == data

    def test_distinct_files_distinct_keys(self, brisbane):
        session = GeoProofSession.build(
            datacentre_location=brisbane, params=TEST_PARAMS, seed="keys"
        )
        session.outsource(b"f1", b"data-one" * 100)
        session.outsource(b"f2", b"data-two" * 100)
        assert session.files[b"f1"].keys != session.files[b"f2"].keys


class TestAudit:
    def test_unknown_file(self):
        session, _, _ = build_session("sess-unknown")
        with pytest.raises(ConfigurationError):
            session.audit(b"ghost")

    def test_repeated_audits_accumulate(self):
        session, file_id, _ = build_session("sess-many")
        outcomes = [session.audit(file_id, k=5) for _ in range(5)]
        assert all(o.verdict.accepted for o in outcomes)
        assert verdict_counts(session.tpa) == {"accepted": 5, "rejected": 0}

    def test_clock_monotone_across_audits(self):
        session, file_id, _ = build_session("sess-clock")
        session.audit(file_id, k=5)
        t1 = session.verifier.clock.now_ms()
        session.audit(file_id, k=5)
        assert session.verifier.clock.now_ms() > t1
