"""EconomicsReport assembly, aggregates, rendering and JSON export."""

import json

import pytest

from repro.economics import AdversaryCampaign, build_economics_report


@pytest.fixture(scope="module")
def report():
    """One small end-to-end report shared by every test here."""
    campaign = AdversaryCampaign(
        n_providers=3,
        n_files=6,
        k_rounds=6,
        hours=12.0,
        seed="report-test",
    )
    return build_economics_report(
        campaign,
        cache_fractions=(0.0, 0.5, 1.0),
        engines=("slot", "event"),
        check_equivalence=True,
    )


pytestmark = pytest.mark.slow


class TestAggregates:
    def test_cells_cover_the_grid(self, report):
        assert len(report.cells) == 6
        assert {c.engine for c in report.cells} == {"slot", "event"}

    def test_bound_satisfied(self, report):
        assert report.bound_satisfied
        assert report.min_bound_margin is not None

    def test_equivalence_anchor_holds(self, report):
        assert report.equivalence_ok is True

    def test_hit_rate_agreement(self, report):
        assert report.max_hit_rate_error < 0.08

    def test_defence_priced_out(self, report):
        # Commodity prices: no swept cache size is profitable, and
        # the rational attacker's cache cap is a sliver of the file.
        assert report.profitable_cache_bytes is None
        assert (
            0
            < report.break_even_cache_bytes
            < report.geometry.stored_bytes
        )

    def test_quotes_cover_every_tenant(self, report):
        assert [q.tenant for q in report.quotes] == [
            "tenant-1",
            "tenant-2",
            "tenant-3",
        ]
        assert report.quotes[1].provider == "provider-2"
        for quote in report.quotes:
            assert quote.deterrable
            assert quote.timing_radius_km is not None

    def test_roi_curve_per_engine(self, report):
        for engine in ("slot", "event"):
            curve = report.roi_curve(engine)
            assert len(curve) == 3
            cache_sizes = [size for size, _ in curve]
            assert cache_sizes == sorted(cache_sizes)
            # Every point of the curve is loss-making or unbounded
            # RAM burn (None = -inf after JSON sanitisation).
            assert all(roi is None or roi < 0 for _, roi in curve)


class TestExport:
    def test_to_dict_is_json_serialisable(self, report):
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["attack"] == "prefetch-relay"
        assert payload["bound_satisfied"] is True
        assert payload["equivalence_ok"] is True
        assert len(payload["cells"]) == 6
        assert len(payload["quotes"]) == 3
        assert payload["victim"]["provider"] == "provider-3"
        assert set(payload["roi_curves"]) == {"slot", "event"}

    def test_render_mentions_every_section(self, report):
        rendered = report.render()
        assert "Adversary campaign" in rendered
        assert "Cache sweep" in rendered
        assert "Per-tenant defence pricing" in rendered
        assert "break-even cache size" in rendered
        assert "detection bound (1 - (cache/file)^k): met" in rendered
        assert "slot-vs-event stream equivalence" in rendered

    def test_fleet_reports_name_the_adversary(self):
        campaign = AdversaryCampaign(
            n_providers=2, n_files=4, hours=3.0, seed="adv-name"
        )
        fleet = campaign.build_fleet()
        geometry = campaign.measure_geometry(fleet)
        campaign.inject(fleet, geometry, 0)
        fleet_report = fleet.run(hours=3.0)
        assert fleet_report.adversaries == (
            ("provider-2", "PrefetchRelayAttack"),
        )
        assert "PrefetchRelayAttack" in fleet_report.render()
        assert fleet_report.to_dict()["adversaries"] == {
            "provider-2": "PrefetchRelayAttack"
        }
        # Per-tenant detection latency surfaced for the victim tenant.
        victim = fleet_report.tenant_summary(geometry.tenant)
        assert victim.first_detection_hours is not None
        honest = fleet_report.tenant_summary("tenant-1")
        assert honest.first_detection_hours is None
