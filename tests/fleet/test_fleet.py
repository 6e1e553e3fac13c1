"""End-to-end fleet auditing: three providers, two of them misbehaving."""

import pytest

from repro.cloud.adversary import CorruptionAttack, RelayAttack
from repro.cloud.provider import DataCentre
from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError
from repro.fleet import AuditFleet, RoundRobinStrategy
from repro.fleet.fleet import DISPATCH_OVERHEAD_MS
from repro.geo.datasets import city
from repro.storage.hdd import IBM_36Z15


def register_files(fleet, tenant, provider, site, n, *, epsilon=0.05):
    data_rng = DeterministicRNG(f"{tenant}-data")
    for i in range(n):
        fleet.register(
            tenant=tenant,
            provider=provider,
            datacentre=site,
            file_id=f"{tenant}-{i}".encode(),
            data=data_rng.fork(str(i)).random_bytes(2_000),
            epsilon=epsilon,
        )


@pytest.fixture
def mixed_fleet():
    """Honest, relaying and corrupting providers with two files each."""
    fleet = AuditFleet(seed="mixed-fleet", slot_minutes=30.0, batch_size=4)
    fleet.add_provider("honest", [("brisbane", city("brisbane"))])
    fleet.add_provider("relayer", [("sydney", city("sydney"))])
    fleet.add_provider("rotter", [("melbourne", city("melbourne"))])
    register_files(fleet, "alice", "honest", "brisbane", 2)
    register_files(fleet, "bob", "relayer", "sydney", 2)
    register_files(fleet, "carol", "rotter", "melbourne", 2, epsilon=0.30)

    # The relayer quietly moved bob's data to Singapore (Fig. 6).
    relayer = fleet.provider("relayer")
    relayer.add_datacentre(
        DataCentre("singapore", city("singapore"), disk=IBM_36Z15)
    )
    for task in fleet.tasks():
        if task.provider_name == "relayer":
            relayer.relocate(task.file_id, "singapore")
    relayer.set_strategy(RelayAttack("sydney", "singapore"))

    # The rotter serves locally but 30 % of segments are bit-rotted.
    fleet.provider("rotter").set_strategy(
        CorruptionAttack("melbourne", 0.30, DeterministicRNG("rot"))
    )
    return fleet


class TestEndToEnd:
    def test_both_adversaries_detected(self, mixed_fleet):
        mixed_fleet.strategy = RoundRobinStrategy()
        report = mixed_fleet.run(hours=24.0)

        assert report.n_providers == 3
        assert report.n_files == 6
        assert report.n_audits > 0

        # The honest tenant is never flagged.
        alice = report.tenant_summary("alice")
        assert alice.n_audits > 0
        assert alice.acceptance_rate == 1.0

        # Every relayed file trips the timing bound...
        flagged = {v.file_id: v for v in report.violations}
        for i in range(2):
            violation = flagged[f"bob-{i}".encode()]
            assert "timing" in violation.failure_reasons
            assert violation.provider == "relayer"
        # ...and every corrupted file trips the MAC check.
        rotted = [v for v in report.violations if v.provider == "rotter"]
        assert rotted
        assert all("mac" in v.failure_reasons for v in rotted)

        # Detection latency is reported in simulated hours.
        for violation in report.violations:
            assert 0.0 <= violation.detected_at_hours <= 24.0
        assert report.detection_hours(b"bob-0") is not None
        assert report.detection_hours(b"alice-0") is None

        # The verdict breakdown counts both failure modes.
        breakdown = dict(report.verdict_breakdown)
        assert breakdown["timing"] > 0
        assert breakdown["mac"] > 0
        assert breakdown["accepted"] > 0

    def test_rendered_report_has_all_sections(self, mixed_fleet):
        report = mixed_fleet.run(hours=6.0)
        rendered = report.render()
        for heading in (
            "Fleet audit run",
            "Per-tenant acceptance",
            "Verdict breakdown",
            "Violations detected",
        ):
            assert heading in rendered


class TestMechanics:
    def test_shared_clock_advances_across_audits(self, mixed_fleet):
        start = mixed_fleet.clock.now_ms()
        report = mixed_fleet.run(hours=2.0)
        assert mixed_fleet.clock.now_ms() > start
        times = [e.at_ms for e in report.events]
        assert times == sorted(times)

    def test_batches_share_a_datacentre(self, mixed_fleet):
        batch = mixed_fleet.next_batch()
        assert 1 <= len(batch) <= mixed_fleet.batch_size
        assert len({t.site for t in batch}) == 1

    def test_batching_amortises_dispatch_overhead(self, mixed_fleet):
        report = mixed_fleet.run(hours=6.0)
        assert report.n_batches < report.n_audits
        assert report.overhead_saved_ms == pytest.approx(
            (report.n_audits - report.n_batches) * DISPATCH_OVERHEAD_MS
        )

    def test_throughput_property(self, mixed_fleet):
        report = mixed_fleet.run(hours=6.0)
        assert report.audits_per_simulated_hour == pytest.approx(
            report.n_audits / 6.0
        )


class TestOverrunClamp:
    def test_run_stops_at_horizon_when_audits_overrun_slots(self):
        """Sub-millisecond slots must not run the nominal slot count."""
        fleet = AuditFleet(seed="overrun", slot_minutes=0.001, batch_size=1)
        fleet.add_provider("p", [("bne", city("brisbane"))])
        register_files(fleet, "t", "p", "bne", 1)
        hours = 0.01  # 36 simulated seconds; each audit costs ~100 ms+
        report = fleet.run(hours=hours)
        # The clock, not the slot counter, bounds the run: far fewer
        # batches than the nominal 600 slots, and only the final batch
        # may spill past the horizon.
        assert report.n_batches < 600
        horizon_ms = hours * 3_600_000.0
        last_slot = report.events[-1].slot
        assert all(
            e.at_ms <= horizon_ms
            for e in report.events
            if e.slot != last_slot
        )


class TestKeyIndependence:
    def test_same_file_id_on_two_providers_gets_distinct_keys(self):
        fleet = AuditFleet(seed="key-independence")
        fleet.add_provider("p1", [("bne", city("brisbane"))])
        fleet.add_provider("p2", [("syd", city("sydney"))])
        data = DeterministicRNG("same-data").random_bytes(2_000)
        for provider, site in (("p1", "bne"), ("p2", "syd")):
            fleet.register(
                tenant="t",
                provider=provider,
                datacentre=site,
                file_id=b"shared-name",
                data=data,
            )
        first = fleet.record("p1", b"shared-name")
        second = fleet.record("p2", b"shared-name")
        assert first.keys.mac_key != second.keys.mac_key

    def test_hyphenated_names_cannot_alias_key_derivation(self):
        """('a', 'b-p') and ('a-b', 'p') must not share a fork label."""
        fleet = AuditFleet(seed="alias")
        fleet.add_provider("b-p", [("bne", city("brisbane"))])
        fleet.add_provider("p", [("syd", city("sydney"))])
        data = DeterministicRNG("alias-data").random_bytes(2_000)
        fleet.register(
            tenant="a", provider="b-p", datacentre="bne",
            file_id=b"F", data=data,
        )
        fleet.register(
            tenant="a-b", provider="p", datacentre="syd",
            file_id=b"F", data=data,
        )
        assert (
            fleet.record("b-p", b"F").keys.mac_key
            != fleet.record("p", b"F").keys.mac_key
        )

    def test_detection_hours_scoped_by_provider(self):
        """A shared file id flagged on one provider must not taint the
        other provider's clean copy in report lookups."""
        fleet = AuditFleet(
            seed="scoped-detection",
            slot_minutes=30.0,
            strategy=RoundRobinStrategy(),
        )
        fleet.add_provider("clean", [("bne", city("brisbane"))])
        fleet.add_provider("dirty", [("syd", city("sydney"))])
        data = DeterministicRNG("scoped-data").random_bytes(2_000)
        for provider, site in (("clean", "bne"), ("dirty", "syd")):
            fleet.register(
                tenant=provider, provider=provider, datacentre=site,
                file_id=b"shared", data=data, epsilon=0.30,
            )
        fleet.provider("dirty").set_strategy(
            CorruptionAttack("syd", 0.30, DeterministicRNG("rot2"))
        )
        report = fleet.run(hours=12.0)
        assert report.detection_hours(b"shared", provider="dirty") is not None
        assert report.detection_hours(b"shared", provider="clean") is None
        # Unscoped lookup still answers (earliest across providers).
        assert report.detection_hours(b"shared") == report.detection_hours(
            b"shared", provider="dirty"
        )


class TestInjectAdversary:
    """The economics hook: install, relocate, record, restore."""

    def build(self):
        fleet = AuditFleet(seed="inject", slot_minutes=30.0)
        fleet.add_provider("p", [("bne", city("brisbane"))])
        register_files(fleet, "t", "p", "bne", 2)
        return fleet

    def test_unknown_provider_rejected(self):
        fleet = self.build()
        with pytest.raises(ConfigurationError):
            fleet.inject_adversary("ghost", RelayAttack("bne", "syd"))

    def test_unknown_relocation_site_fails_fast(self):
        fleet = self.build()
        with pytest.raises(ConfigurationError):
            fleet.inject_adversary(
                "p", RelayAttack("bne", "syd"), relocate_to="syd"
            )

    def test_relocates_installs_and_records(self):
        fleet = self.build()
        provider = fleet.provider("p")
        provider.add_datacentre(
            DataCentre("syd", city("sydney"), disk=IBM_36Z15)
        )
        strategy = RelayAttack("bne", "syd")
        fleet.inject_adversary("p", strategy, relocate_to="syd")
        assert provider.strategy is strategy
        assert fleet.adversaries() == {"p": "RelayAttack"}
        for task in fleet.tasks():
            assert provider.home_of(task.file_id).name == "syd"
        report = fleet.run(hours=3.0)
        assert report.adversaries == (("p", "RelayAttack"),)
        assert report.acceptance_rate == 0.0
        # Per-tenant detection latency surfaced on the summary row.
        assert (
            report.tenant_summary("t").first_detection_hours
            == report.first_detection_hours()
        )
        assert report.to_dict()["tenants"][0][
            "first_detection_hours"
        ] is not None

    def test_none_restores_honest_serving_but_keeps_record(self):
        fleet = self.build()
        fleet.inject_adversary(
            "p",
            CorruptionAttack("bne", 0.5, DeterministicRNG("inject")),
        )
        fleet.inject_adversary("p", None)
        assert fleet.provider("p").strategy is None
        assert fleet.adversaries() == {"p": "CorruptionAttack"}


class TestRegistration:
    def test_duplicate_file_rejected(self):
        fleet = AuditFleet(seed="dup")
        fleet.add_provider("p", [("bne", city("brisbane"))])
        register_files(fleet, "t", "p", "bne", 1)
        with pytest.raises(ConfigurationError):
            register_files(fleet, "t", "p", "bne", 1)

    def test_unknown_provider_rejected(self):
        fleet = AuditFleet(seed="unknown")
        with pytest.raises(ConfigurationError):
            fleet.register(
                tenant="t",
                provider="ghost",
                datacentre="bne",
                file_id=b"f",
                data=b"x" * 100,
            )

    def test_duplicate_provider_rejected(self):
        fleet = AuditFleet(seed="dup-provider")
        fleet.add_provider("p", [("bne", city("brisbane"))])
        with pytest.raises(ConfigurationError):
            fleet.add_provider("p", [("syd", city("sydney"))])

    def test_provider_needs_a_datacentre(self):
        fleet = AuditFleet(seed="no-dc")
        with pytest.raises(ConfigurationError):
            fleet.add_provider("p", [])

    def test_empty_fleet_cannot_run(self):
        fleet = AuditFleet(seed="empty")
        with pytest.raises(ConfigurationError):
            fleet.run(hours=1.0)

    def test_site_without_verifier_rejected_at_registration(self):
        """A site added behind the fleet's back must fail fast."""
        from repro.cloud.provider import DataCentre

        fleet = AuditFleet(seed="no-verifier")
        provider = fleet.add_provider("p", [("bne", city("brisbane"))])
        provider.add_datacentre(DataCentre("syd", city("sydney")))
        with pytest.raises(ConfigurationError, match="no verifier"):
            fleet.register(
                tenant="t",
                provider="p",
                datacentre="syd",
                file_id=b"f",
                data=b"x" * 500,
            )

    def test_unservable_round_count_rejected_before_upload(self):
        """k_rounds past the file's segment count fails at register.

        Before, registration succeeded and ``run()`` aborted the whole
        campaign on the first audit of the file.
        """
        data = DeterministicRNG("rounds-data").random_bytes(2_000)

        def fleet_at(k_rounds):
            fleet = AuditFleet(seed="too-many-rounds", default_k_rounds=k_rounds)
            fleet.add_provider("p", [("bne", city("brisbane"))])
            return fleet

        n_segments = fleet_at(1).params.segments_for(len(data))
        for k_rounds in (n_segments + 1, 10_000):
            fleet = fleet_at(k_rounds)
            with pytest.raises(ConfigurationError, match="k_rounds"):
                fleet.register(
                    tenant="t", provider="p", datacentre="bne",
                    file_id=b"f", data=data,
                )
            assert fleet.n_files == 0
            store = fleet.provider("p").datacentre("bne").server.store
            assert not store.exists(b"f")
        # The largest servable round count registers and runs.
        fleet = fleet_at(n_segments)
        record = fleet.register(
            tenant="t", provider="p", datacentre="bne",
            file_id=b"f", data=data,
        )
        assert record.n_segments == n_segments
        report = fleet.run(hours=1.0)
        assert report.n_audits > 0

    def test_refused_cadence_or_tolerance_leaves_nothing_behind(self):
        """A bad ``epsilon`` or ``interval_hours`` fails before upload,
        so a corrected retry of the same file id registers."""
        fleet = AuditFleet(seed="refused")
        fleet.add_provider("p", [("bne", city("brisbane"))])
        data = DeterministicRNG("refused-data").random_bytes(2_000)
        for bad in ({"epsilon": 1.5}, {"interval_hours": -1.0}):
            with pytest.raises(ConfigurationError):
                fleet.register(
                    tenant="t", provider="p", datacentre="bne",
                    file_id=b"f", data=data, **bad,
                )
        assert fleet.n_files == 0
        assert not fleet.provider("p").datacentre("bne").exists(b"f")
        fleet.register(
            tenant="t", provider="p", datacentre="bne",
            file_id=b"f", data=data,
        )
        assert fleet.n_files == 1
        assert fleet.run(hours=1.0).n_audits > 0

    def test_tenant_file_count_spans_providers(self):
        """The same file id on two providers is two files for the tenant."""
        fleet = AuditFleet(seed="span")
        fleet.add_provider("p1", [("bne", city("brisbane"))])
        fleet.add_provider("p2", [("syd", city("sydney"))])
        data = DeterministicRNG("span-data").random_bytes(2_000)
        for provider, site in (("p1", "bne"), ("p2", "syd")):
            fleet.register(
                tenant="t", provider=provider, datacentre=site,
                file_id=b"backup", data=data,
            )
        report = fleet.run(hours=1.0)
        assert report.tenant_summary("t").n_files == 2

    def test_record_lookup(self):
        fleet = AuditFleet(seed="record")
        fleet.add_provider("p", [("bne", city("brisbane"))])
        register_files(fleet, "t", "p", "bne", 1)
        record = fleet.record("p", b"t-0")
        assert record.n_segments > 0
        with pytest.raises(ConfigurationError):
            fleet.record("p", b"ghost")

