"""The event engine: per-datacentre lanes, equivalence, concurrency."""

import pytest

from repro.cloud.adversary import CorruptionAttack
from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError
from repro.fleet import AuditFleet, RoundRobinStrategy
from repro.fleet.demo import build_demo_fleet
from repro.geo.datasets import city


def single_site_fleet(engine):
    """One provider, one data centre, a mix of clean and rotted files."""
    fleet = AuditFleet(
        seed="engine-equivalence",
        slot_minutes=30.0,
        batch_size=3,
        engine=engine,
    )
    fleet.add_provider("p", [("bne", city("brisbane"))])
    data_rng = DeterministicRNG("engine-equivalence-data")
    for i in range(5):
        fleet.register(
            tenant="t",
            provider="p",
            datacentre="bne",
            file_id=f"f-{i}".encode(),
            data=data_rng.fork(str(i)).random_bytes(2_000),
            epsilon=0.30,
        )
    fleet.provider("p").set_strategy(
        CorruptionAttack("bne", 0.30, DeterministicRNG("engine-rot"))
    )
    return fleet


def two_site_fleet(engine, *, slot_minutes=30.0):
    """Honest provider at one site, corrupting provider at another."""
    fleet = AuditFleet(
        seed="two-site",
        slot_minutes=slot_minutes,
        batch_size=2,
        engine=engine,
    )
    fleet.add_provider("honest", [("bne", city("brisbane"))])
    fleet.add_provider("rotter", [("mel", city("melbourne"))])
    data_rng = DeterministicRNG("two-site-data")
    for provider, site in (("honest", "bne"), ("rotter", "mel")):
        for i in range(3):
            fleet.register(
                tenant=provider,
                provider=provider,
                datacentre=site,
                file_id=f"{provider}-{i}".encode(),
                data=data_rng.fork(f"{provider}-{i}").random_bytes(2_000),
                epsilon=0.30,
            )
    fleet.provider("rotter").set_strategy(
        CorruptionAttack("mel", 0.30, DeterministicRNG("two-site-rot"))
    )
    return fleet


class TestEquivalence:
    def test_single_site_slot_and_event_identical(self):
        """One data centre: the two engines must emit the same stream.

        Same audits, same order, same timestamps, same verdicts, same
        violations -- the event engine's per-lane ranking degenerates
        to the fleet-wide ranking when only one lane exists.
        """
        slot = single_site_fleet("slot").run(hours=6.0)
        event = single_site_fleet("event").run(hours=6.0)
        assert slot.events == event.events
        assert slot.violations == event.violations
        assert slot.verdict_breakdown == event.verdict_breakdown
        assert slot.tenants == event.tenants
        assert slot.n_batches == event.n_batches
        assert slot.overhead_saved_ms == event.overhead_saved_ms
        # Even the lane accounting agrees: one lane, same busy time.
        assert slot.lanes == event.lanes
        assert slot.engine == "slot" and event.engine == "event"


class TestDeterminism:
    def test_same_seed_identical_event_reports(self):
        def run():
            return build_demo_fleet(
                n_files=9,
                n_providers=3,
                seed="event-determinism",
                violation="corrupt",
                slot_minutes=30.0,
                engine="event",
            ).run(hours=6.0)

        first, second = run(), run()
        # Frozen dataclasses compare field by field: every event,
        # lane row, timestamp and aggregate must match exactly.
        assert first == second
        assert first.render() == second.render()

    def test_merged_timeline_is_time_ordered(self):
        report = two_site_fleet("event").run(hours=6.0)
        times = [e.at_ms for e in report.events]
        assert times == sorted(times)


class TestConcurrency:
    def test_corruption_detected_without_delaying_other_site(self):
        """A rotting site is caught while the honest site keeps cadence.

        Under the serial slot loop the two sites share one batch per
        slot, so each gets only every other slot; under the event
        engine each lane dispatches every slot.  The honest lane must
        therefore audit at least as often as the *whole* slot fleet
        gave it, and the violation still gets caught.
        """
        hours = 6.0
        slot = two_site_fleet("slot").run(hours=hours)
        event = two_site_fleet("event").run(hours=hours)

        def audits_at(report, provider):
            return sum(1 for e in report.events if e.provider == provider)

        # The violation is detected under both engines...
        assert slot.first_detection_hours() is not None
        assert event.first_detection_hours() is not None
        # ...but the event engine audits every site every slot: both
        # sites get strictly more audits than under the shared loop.
        for provider in ("honest", "rotter"):
            assert audits_at(event, provider) > audits_at(slot, provider)
        # Full cadence at the honest site: one batch per slot.
        honest_lane = next(
            lane for lane in event.lanes if lane.provider == "honest"
        )
        assert honest_lane.n_batches == int(hours * 60 / 30.0)
        assert honest_lane.dropped_slots == 0

    def test_lane_stats_expose_overlap(self):
        report = two_site_fleet("event").run(hours=6.0)
        assert len(report.lanes) == 2
        assert all(lane.busy_ms > 0 for lane in report.lanes)
        assert all(lane.disk_busy_ms > 0 for lane in report.lanes)
        assert all(0.0 < lane.utilization < 1.0 for lane in report.lanes)
        assert report.concurrency_speedup > 1.0
        # The slot engine reports the same sites but, serial by
        # construction, claims no overlap.
        slot = two_site_fleet("slot").run(hours=6.0)
        assert [l.site for l in slot.lanes] == [l.site for l in report.lanes]
        assert slot.concurrency_speedup == 1.0

    def test_saturated_lane_sheds_slots(self):
        """Sub-millisecond slots overload the lane's bounded queue."""
        fleet = two_site_fleet("event", slot_minutes=0.001)
        report = fleet.run(hours=0.01)
        saturated = [lane for lane in report.lanes if lane.dropped_slots]
        assert saturated, "expected the overloaded lanes to shed slots"
        assert all(
            lane.peak_queue_depth <= fleet.lane_queue_limit
            for lane in report.lanes
        )


class TestHorizonOverrun:
    def test_overrunning_audits_flagged_in_both_engines(self):
        """Regression: events past the horizon are flagged, not silent.

        With sub-millisecond slots every audit overruns; the final
        batch spills past the horizon in both engines and each spilled
        event carries ``overran_horizon``.
        """
        hours = 0.01  # 36 simulated seconds; each audit costs ~100 ms+
        horizon_ms = hours * 3_600_000.0
        for engine in ("slot", "event"):
            fleet = single_site_fleet(engine)
            fleet.slot_minutes = 0.001
            report = fleet.run(hours=hours)
            flagged = [e for e in report.events if e.overran_horizon]
            assert flagged, f"{engine}: expected horizon-spilling events"
            for event in report.events:
                assert event.overran_horizon == (event.at_ms > horizon_ms)
            assert report.n_overrun_events == len(flagged)

    def test_no_flags_inside_the_horizon(self):
        report = single_site_fleet("slot").run(hours=6.0)
        assert report.n_overrun_events == 0
        assert all(not e.overran_horizon for e in report.events)


class TestValidation:
    def test_unknown_engine_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            AuditFleet(seed="bad", engine="threads")

    def test_lane_queue_limit_validated(self):
        with pytest.raises(ConfigurationError, match="lane_queue_limit"):
            AuditFleet(seed="bad-lanes", lane_queue_limit=0)
