"""AdversaryCampaign: injection, measurement, engine equivalence.

Each campaign cell pays full POR setups for a fresh fleet, so the
end-to-end sweeps live in the slow lane; a handful of single-cell
checks stay fast.
"""

import pytest

from repro.cloud.adversary import DeletionAttack, PrefetchRelayAttack
from repro.economics import build_economics_report
from repro.economics.campaign import (
    ATTACKS,
    AdversaryCampaign,
    DEFAULT_SWEEP_FRACTIONS,
)
from repro.errors import ConfigurationError


def quick_campaign(**overrides) -> AdversaryCampaign:
    kwargs = dict(
        n_providers=3,
        n_files=6,
        k_rounds=6,
        hours=6.0,
        seed="campaign-test",
    )
    kwargs.update(overrides)
    return AdversaryCampaign(**kwargs)


def run_cell(campaign, *, cache_fraction=0.0, engine="slot"):
    """One cell, staged and run the way ``build_economics_report`` does."""
    fleet, geometry = campaign.prepare_cell(engine)
    return campaign.run_on(fleet, geometry, cache_fraction=cache_fraction)


class TestConfiguration:
    def test_unknown_attack_rejected(self):
        with pytest.raises(ConfigurationError):
            AdversaryCampaign(attack="teleport")

    def test_bad_delete_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            AdversaryCampaign(attack="deletion", delete_fraction=1.5)

    def test_bad_cache_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            run_cell(quick_campaign(), cache_fraction=2.0)

    def test_cacheless_attacks_reject_nonzero_cache(self):
        # Regression pin: a relay/deletion cell with a non-zero cache
        # fraction used to account a phantom cache (analytic hit rate
        # and RAM ledger for RAM that was never installed).
        for attack in ("relay", "deletion"):
            with pytest.raises(ConfigurationError, match="no cache"):
                run_cell(quick_campaign(attack=attack), cache_fraction=0.5)

    def test_cacheless_attacks_reject_explicit_sweep(self):
        # Regression pin: an explicit cache sweep for a cacheless
        # attack used to be silently replaced with one zero cell.
        with pytest.raises(ConfigurationError, match="no cache"):
            build_economics_report(
                quick_campaign(attack="deletion"),
                cache_fractions=(0.5,),
                engines=("slot",),
            )

    def test_attack_registry(self):
        assert set(ATTACKS) == {"prefetch-relay", "relay", "deletion"}
        assert all(0.0 <= f <= 1.0 for f in DEFAULT_SWEEP_FRACTIONS)


class TestGeometry:
    def test_victim_is_the_last_provider(self):
        campaign = quick_campaign()
        fleet = campaign.build_fleet()
        geometry = campaign.measure_geometry(fleet)
        assert geometry.provider == "provider-3"
        assert geometry.tenant == "tenant-3"
        assert geometry.n_files == 2  # 6 files over 3 providers
        assert geometry.n_segments == sum(
            n for _, n in geometry.segments_per_file
        )
        assert geometry.entry_bytes > 0
        assert geometry.rtt_max_ms > 0

    def test_geometry_matches_fleet_records(self):
        campaign = quick_campaign()
        fleet = campaign.build_fleet()
        geometry = campaign.measure_geometry(fleet)
        for file_id, n_segments in geometry.segments_per_file:
            record = fleet.record(geometry.provider, file_id)
            assert record.n_segments == n_segments


class TestInjection:
    def test_prefetch_injection_relocates_and_prewarm_is_metered(self):
        campaign = quick_campaign()
        fleet = campaign.build_fleet()
        geometry = campaign.measure_geometry(fleet)
        cache_bytes = geometry.n_segments * geometry.entry_bytes // 2
        strategy = campaign.inject(fleet, geometry, cache_bytes)
        assert isinstance(strategy, PrefetchRelayAttack)
        # The hook recorded the misbehaviour...
        assert fleet.adversaries() == {
            geometry.provider: "PrefetchRelayAttack"
        }
        # ...the files physically moved offshore...
        provider = fleet.provider(geometry.provider)
        for file_id, _ in geometry.segments_per_file:
            assert provider.home_of(file_id).name == "singapore"
        # ...and the prewarm was metered, bytes and dollars.
        assert strategy.prewarmed_bytes > 0
        assert strategy.prewarm_cost_usd > 0
        assert len(strategy.cache._entries) > 0

    def test_prewarm_split_is_proportional(self):
        campaign = quick_campaign()
        fleet = campaign.build_fleet()
        geometry = campaign.measure_geometry(fleet)
        capacity = geometry.n_segments // 2
        strategy = campaign.inject(
            fleet, geometry, capacity * geometry.entry_bytes
        )
        # Every victim file got ~half its segments warmed.
        warmed_per_file: dict = {}
        for (file_id, _index) in strategy.cache._entries:
            warmed_per_file[file_id] = warmed_per_file.get(file_id, 0) + 1
        for file_id, n_segments in geometry.segments_per_file:
            assert warmed_per_file[file_id] == (
                capacity * n_segments // geometry.n_segments
            )

    def test_deletion_injection_stays_onshore(self):
        campaign = quick_campaign(attack="deletion")
        fleet = campaign.build_fleet()
        geometry = campaign.measure_geometry(fleet)
        strategy = campaign.inject(fleet, geometry, 0)
        assert isinstance(strategy, DeletionAttack)
        provider = fleet.provider(geometry.provider)
        assert "singapore" not in provider.datacentre_names()


class TestSingleCells:
    def test_empty_cache_detected_every_audit(self):
        cell = run_cell(quick_campaign(), cache_fraction=0.0)
        assert cell.observed_detection_rate == 1.0
        assert cell.detection_bound == 1.0
        assert cell.all_files_detected
        assert cell.first_detection_hours is not None
        assert cell.bound_met
        assert cell.relayed_bytes > 0
        assert cell.prewarmed_bytes == 0

    def test_full_cache_escapes_timing(self):
        cell = run_cell(quick_campaign(), cache_fraction=1.0)
        assert cell.observed_detection_rate == 0.0
        assert cell.detection_bound == 0.0
        assert cell.simulated_hit_rate == 1.0
        assert cell.n_detected_files == 0
        assert cell.bound_met  # vacuously: 0 >= 0
        # Economics still say no: RAM for the whole file dwarfs the
        # storage delta, so the "winning" attack loses money forever.
        assert cell.economics is not None
        assert not cell.economics.profitable

    def test_half_cache_tracks_model_and_bound(self):
        cell = run_cell(quick_campaign(hours=12.0), cache_fraction=0.5)
        assert cell.analytic_hit_rate == pytest.approx(0.5, abs=0.01)
        assert cell.hit_rate_error < 0.08
        assert cell.bound_met
        assert cell.victim_audits > 0
        assert cell.tenant_detection_hours == cell.first_detection_hours

    def test_deletion_cell_detected_by_macs(self):
        cell = run_cell(
            quick_campaign(attack="deletion", delete_fraction=0.5, hours=12.0)
        )
        assert cell.detection_bound is None  # timing bound n/a
        assert cell.detection_probability is None
        assert cell.bound_margin is None and cell.bound_met
        assert cell.economics is None
        assert cell.observed_detection_rate > 0.5
        assert cell.n_detected_files > 0

    def test_deletion_cell_exports_valid_json(self):
        # Regression pin: the cache-model-n/a detection probability
        # used to export as float('nan'), producing invalid JSON.
        import json

        cell = run_cell(quick_campaign(attack="deletion"))
        payload = json.dumps(cell.to_dict(), allow_nan=False)
        assert json.loads(payload)["detection_probability"] is None

    def test_relay_campaign_installs_a_true_relay_attack(self):
        # Regression pin: plain relay campaigns used to install a
        # PrefetchRelayAttack(cache_bytes=0), so FleetReport named the
        # wrong strategy.
        campaign = quick_campaign(attack="relay")
        fleet, geometry = campaign.prepare_cell("slot")
        campaign.inject(fleet, geometry, 0)
        assert fleet.adversaries() == {"provider-3": "RelayAttack"}


@pytest.mark.slow
class TestSweeps:
    def test_relay_campaign_is_one_cell_per_engine(self):
        cells = build_economics_report(quick_campaign(attack="relay")).cells
        assert [c.engine for c in cells] == ["slot", "event"]
        assert all(c.cache_bytes == 0 for c in cells)
        assert all(c.observed_detection_rate == 1.0 for c in cells)

    def test_prefetch_sweep_covers_engines_by_fractions(self):
        cells = build_economics_report(quick_campaign(hours=12.0)).cells
        assert len(cells) == 10  # 2 engines x 5 cache fractions
        assert all(cell.bound_met for cell in cells)
        # Monotone physics along each engine's sweep: more cache,
        # higher hit rate, later (or never) detection.
        for engine in ("slot", "event"):
            row = [c for c in cells if c.engine == engine]
            hits = [c.simulated_hit_rate for c in row]
            assert hits == sorted(hits)
            assert row[0].all_files_detected
            assert row[-1].n_detected_files == 0

    def test_event_engine_detects_sooner_than_slot(self):
        """The PR 3 concurrency win carries into adversary campaigns:
        the victim lane audits immediately instead of waiting for the
        global loop to reach it."""
        campaign = quick_campaign(hours=12.0)
        slot = run_cell(campaign, engine="slot")
        event = run_cell(campaign, engine="event")
        assert event.first_detection_hours < slot.first_detection_hours

    def test_slot_event_equivalence_with_adversary(self):
        assert quick_campaign().slot_event_streams_match()

    def test_deterministic_cells(self):
        a = run_cell(quick_campaign(), cache_fraction=0.5)
        b = run_cell(quick_campaign(), cache_fraction=0.5)
        assert a == b
