"""Shared spindles, replicated placement, and lane-aware scheduling."""

import hashlib
import json
from collections import Counter

import pytest

from repro import obs
from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError
from repro.fleet import (
    AuditFleet,
    DeadlineStrategy,
    FleetLoadView,
    LaneLoad,
    RiskWeightedStrategy,
    RoundRobinStrategy,
    WorkStealingStrategy,
)
from repro.fleet.demo import build_contention_fleet, rot_at_rest
from repro.fleet.strategies import MS_PER_HOUR, AuditTask
from repro.geo.datasets import city
from repro.obs.metrics import MetricsRegistry


def replicated_fleet(engine, *, spindles=None, replicas=2, strategy=None):
    """One provider, two far-apart sites, replicated files."""
    fleet = AuditFleet(
        seed="replicated",
        strategy=strategy,
        slot_minutes=30.0,
        batch_size=2,
        engine=engine,
    )
    fleet.add_provider(
        "acme",
        [("bne", city("brisbane")), ("per", city("perth"))],
        spindles=spindles,
    )
    data_rng = DeterministicRNG("replicated-data")
    for i in range(3):
        fleet.register(
            tenant="t",
            provider="acme",
            datacentre="bne",
            file_id=f"f-{i}".encode(),
            data=data_rng.fork(str(i)).random_bytes(2_000),
            replicas=replicas,
        )
    return fleet


class TestReplicatedPlacement:
    def test_replicas_are_stored_at_sibling_sites(self):
        fleet = replicated_fleet("event")
        provider = fleet.provider("acme")
        for i in range(3):
            file_id = f"f-{i}".encode()
            assert provider.datacentre("per").exists(file_id)
            task = next(t for t in fleet.tasks() if t.file_id == file_id)
            assert task.replica_datacentres == ("per",)

    def test_replicas_bounded_by_site_count(self):
        fleet = replicated_fleet("event")
        with pytest.raises(ConfigurationError, match="replicas"):
            fleet.register(
                tenant="t",
                provider="acme",
                datacentre="bne",
                file_id=b"too-many",
                data=b"x" * 500,
                replicas=3,
            )

    def test_replicated_audits_still_accepted_at_home(self):
        report = replicated_fleet("event").run(hours=1.0)
        assert report.acceptance_rate == 1.0
        assert all(e.executed_at == e.datacentre for e in report.events)


class TestSpindleSharing:
    def test_spindle_count_validated(self):
        fleet = AuditFleet(seed="bad-spindles")
        with pytest.raises(ConfigurationError, match="spindles"):
            fleet.add_provider(
                "acme", [("bne", city("brisbane"))], spindles=2
            )

    def test_shared_spindle_backs_multiple_sites(self):
        fleet = replicated_fleet("event", spindles=1)
        provider = fleet.provider("acme")
        assert (
            provider.datacentre("bne").server
            is provider.datacentre("per").server
        )

    def test_dedicated_spindles_never_wait(self):
        report = replicated_fleet("event").run(hours=1.0)
        assert len(report.spindles) == 2
        assert all(not s.shared for s in report.spindles)
        assert all(s.wait_ms == 0.0 for s in report.spindles)
        assert report.n_contention_timeouts == 0
        assert all(e.spindle_wait_ms == 0.0 for e in report.events)

    def test_contended_spindles_report_waits(self):
        fleet, _ = build_contention_fleet(
            hot_files=6, k_rounds=4, batch_size=2, slot_minutes=0.0025,
            spindles=1,
        )
        report = fleet.run(hours=0.005)
        assert len(report.spindles) == 1
        spindle = report.spindles[0]
        assert spindle.shared and len(spindle.sites) == 4
        assert spindle.wait_ms > 0
        assert spindle.n_waited > 0
        assert spindle.peak_wait_ms > 0
        assert 0 < spindle.utilization
        assert report.total_spindle_wait_ms == spindle.wait_ms
        # The waits surface per lane and per event as well.
        assert any(lane.spindle_wait_ms > 0 for lane in report.lanes)
        assert any(e.spindle_wait_ms > 0 for e in report.events)

    def test_contention_induces_false_timeouts(self):
        """Queue waits push honest audits over Delta-t_max."""
        fleet, rotted = build_contention_fleet(
            hot_files=6, k_rounds=4, batch_size=2, slot_minutes=0.0025,
            spindles=1,
        )
        report = fleet.run(hours=0.005)
        assert report.n_contention_timeouts > 0
        flagged = [e for e in report.events if e.contention_timeout]
        assert all(
            "timing" in e.failure_reasons and e.spindle_wait_ms > 0
            for e in flagged
        )
        # An uncontended build of the same scenario shows none.
        dedicated, _ = build_contention_fleet(
            hot_files=6, k_rounds=4, batch_size=2, slot_minutes=0.0025,
            spindles=None,
        )
        assert dedicated.run(hours=0.005).n_contention_timeouts == 0

    def test_spindle_stats_are_per_run_deltas(self):
        """A second run must not re-report the first run's lookups."""
        fleet = replicated_fleet("event")
        first = fleet.run(hours=1.0)
        second = fleet.run(hours=1.0)
        first_requests = sum(s.n_requests for s in first.spindles)
        second_requests = sum(s.n_requests for s in second.spindles)
        assert first_requests > 0
        # Same workload, same horizon: the second run's delta equals
        # the first's instead of the first's total plus its own.
        assert second_requests == first_requests
        assert sum(s.busy_ms for s in second.spindles) == pytest.approx(
            sum(s.busy_ms for s in first.spindles)
        )


class TestContendedRunPin:
    """The bytes of a run whose spindles queue and whose lanes steal.

    perfbench's committed fleet digests all read zero spindle wait, so
    this is the pin that covers how disk time and queue wait reach the
    report and the lane counters under contention.
    """

    #: sha256 of the canonical report: ``to_dict()`` without the
    #: wall-clock ``verify_seconds`` fields, dumped with sorted keys
    #: (perfbench's ``fleet_digest``).
    REPORT_SHA256 = (
        "190c259bbc17536de59631ebcf0f6198da06f507bb78fd94e6815145e2f5188c"
    )
    #: The lanes' ``repro_fleet_site_wait_ms_total`` series.  The event
    #: engine reports the lane clocks' wait instead, so these values
    #: reach no report.
    SITE_WAIT_MS = {
        ("acme", "adelaide"): 51943.47639320657,
        ("acme", "brisbane"): 50964.14723845055,
        ("acme", "melbourne"): 52300.45648656561,
        ("acme", "sydney"): 56357.359551212474,
    }

    def test_work_stealing_on_one_spindle(self):
        registry = MetricsRegistry(enabled=True)
        with obs.use_registry(registry):
            fleet, _ = build_contention_fleet(
                strategy=WorkStealingStrategy(), engine="event", spindles=1
            )
            report = fleet.run(hours=0.02)
        assert report.n_stolen_audits > 0
        assert report.total_spindle_wait_ms > 0
        assert report.n_contention_timeouts > 0
        canonical = report.to_dict()
        canonical.pop("total_verify_seconds")
        canonical["lanes"] = [
            {key: value for key, value in lane.items()
             if key != "verify_seconds"}
            for lane in canonical["lanes"]
        ]
        blob = json.dumps(canonical, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == self.REPORT_SHA256
        (family,) = [
            family for family in registry.snapshot()["families"]
            if family["name"] == "repro_fleet_site_wait_ms_total"
        ]
        assert {
            tuple(series["labels"].values()): series["value"]
            for series in family["series"]
        } == self.SITE_WAIT_MS


class TestWorkStealing:
    def test_idle_lanes_steal_from_the_saturated_home(self):
        fleet, _ = build_contention_fleet(
            strategy=WorkStealingStrategy(),
            hot_files=6, k_rounds=4, batch_size=2, slot_minutes=0.0025,
            spindles=2,
        )
        report = fleet.run(hours=0.005)
        assert report.n_stolen_audits > 0
        stolen = [e for e in report.events if e.stolen]
        # Stolen audits run at a replica site of the hot home lane...
        assert all(e.datacentre == "brisbane" for e in stolen)
        assert all(e.executed_at != "brisbane" for e in stolen)
        # ...and the executing lanes account for them.
        thieves = {e.executed_at for e in stolen}
        for lane in report.lanes:
            if lane.datacentre in thieves:
                assert lane.stolen_audits > 0
        # The hot lane itself never steals (cold files are unreplicated).
        hot = next(l for l in report.lanes if l.datacentre == "brisbane")
        assert hot.stolen_audits == 0

    def test_stealing_updates_shared_task_bookkeeping(self):
        fleet, _ = build_contention_fleet(
            strategy=WorkStealingStrategy(),
            hot_files=6, k_rounds=4, batch_size=2, slot_minutes=0.0025,
            spindles=2,
        )
        report = fleet.run(hours=0.005)
        stolen = [e for e in report.events if e.stolen]
        assert stolen
        # One task per file, shared by the lanes: a file is audited
        # both at home and at a replica site...
        at_home = {e.file_id for e in report.events if not e.stolen}
        assert {e.file_id for e in stolen} & at_home
        # ...and each stolen audit is charged once, to the lane that
        # ran it.
        assert {
            lane.datacentre: lane.stolen_audits
            for lane in report.lanes
            if lane.stolen_audits
        } == Counter(e.executed_at for e in stolen)

    @pytest.mark.slow
    def test_stealing_beats_round_robin_on_detection(self):
        """The acceptance-criteria gate, in-suite at test scale."""
        detections = {}
        for name, strategy in (
            ("rr", RoundRobinStrategy()),
            ("ws", WorkStealingStrategy()),
        ):
            fleet, rotted = build_contention_fleet(
                strategy=strategy,
                hot_files=12, k_rounds=6, batch_size=2,
                slot_minutes=0.0025, spindles=2,
            )
            report = fleet.run(hours=0.02)
            caught = [report.detection_hours(f, "acme") for f in rotted]
            assert all(c is not None for c in caught), f"{name} missed rot"
            detections[name] = max(caught)
        assert detections["ws"] < detections["rr"]

    def test_slot_engine_falls_back_to_base_policy(self):
        """Without lane views there is nothing to steal."""
        fleet, _ = build_contention_fleet(
            strategy=WorkStealingStrategy(),
            hot_files=4, k_rounds=4, batch_size=2, slot_minutes=0.0025,
            spindles=2, engine="slot",
        )
        report = fleet.run(hours=0.002)
        assert report.n_stolen_audits == 0

    def test_stealing_needs_a_replica_at_the_thief(self):
        """A lane handed a sibling's unreplicated file refuses to audit it."""

        class EveryTask(RoundRobinStrategy):
            def rank_lane(self, tasks, now_ms, lane=None, fleet=None):
                return [
                    task
                    for load in fleet.loads
                    for task in fleet.tasks_at(load.site)
                ]

        fleet = replicated_fleet("event", replicas=1, strategy=EveryTask())
        fleet.register(
            tenant="t", provider="acme", datacentre="per",
            file_id=b"p-0", data=b"z" * 2_000,
        )
        with pytest.raises(ConfigurationError, match="no replica at"):
            fleet.run(hours=1.0)


class TestEquivalenceAnchor:
    """replicas=1 + dedicated spindles: event stream == slot stream."""

    @pytest.mark.parametrize(
        "strategy_factory",
        [
            RoundRobinStrategy,
            RiskWeightedStrategy,
            DeadlineStrategy,
            WorkStealingStrategy,
        ],
        ids=lambda f: f().name,
    )
    def test_uncontended_engines_identical(self, strategy_factory):
        def run(engine):
            fleet = AuditFleet(
                seed="anchor",
                strategy=strategy_factory(),
                slot_minutes=30.0,
                batch_size=3,
                engine=engine,
            )
            fleet.add_provider("p", [("bne", city("brisbane"))])
            data_rng = DeterministicRNG("anchor-data")
            for i in range(4):
                fleet.register(
                    tenant="t",
                    provider="p",
                    datacentre="bne",
                    file_id=f"f-{i}".encode(),
                    data=data_rng.fork(str(i)).random_bytes(2_000),
                )
            return fleet.run(hours=4.0)

        slot, event = run("slot"), run("event")
        assert slot.events == event.events
        assert slot.violations == event.violations
        assert slot.lanes == event.lanes
        assert slot.spindles == event.spindles
        assert slot.n_contention_timeouts == event.n_contention_timeouts == 0
        assert slot.n_stolen_audits == event.n_stolen_audits == 0


class TestJSONExport:
    def test_to_dict_round_trips_through_json(self):
        fleet, rotted = build_contention_fleet(
            strategy=WorkStealingStrategy(),
            hot_files=6, k_rounds=4, batch_size=2, slot_minutes=0.0025,
            spindles=2,
        )
        report = fleet.run(hours=0.005)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["engine"] == "event"
        assert payload["strategy"] == "work-stealing"
        assert payload["n_audits"] == report.n_audits
        assert payload["n_stolen_audits"] == report.n_stolen_audits
        assert len(payload["lanes"]) == len(report.lanes)
        assert len(payload["spindles"]) == len(report.spindles)
        assert len(payload["events"]) == report.n_audits
        spindle = payload["spindles"][0]
        assert {"wait_ms", "busy_ms", "utilization", "sites"} <= set(spindle)
        event = payload["events"][0]
        assert {"executed_at", "stolen", "spindle_wait_ms"} <= set(event)


class TestRotAtRest:
    def test_rot_is_consistent_across_replicas(self):
        fleet = replicated_fleet("event")
        provider = fleet.provider("acme")
        n_rotted = rot_at_rest(provider, b"f-0", fraction=0.5, seed="s")
        assert n_rotted > 0
        home = provider.datacentre("bne").server.store
        replica = provider.datacentre("per").server.store
        differing = [
            i
            for i in range(home.n_segments(b"f-0"))
            if home.get_segment(b"f-0", i).payload
            != replica.get_segment(b"f-0", i).payload
        ]
        assert differing == []  # both copies rotted identically

    def test_rot_fraction_validated(self):
        fleet = replicated_fleet("event")
        with pytest.raises(ConfigurationError, match="fraction"):
            rot_at_rest(fleet.provider("acme"), b"f-0", fraction=1.5)

    def test_rotted_file_fails_mac_wherever_audited(self):
        fleet = replicated_fleet("event")
        rot_at_rest(fleet.provider("acme"), b"f-0", fraction=1.0)
        report = fleet.run(hours=1.0)
        assert report.detection_hours(b"f-0", "acme") is not None
        violation = next(v for v in report.violations if v.file_id == b"f-0")
        assert "mac" in violation.failure_reasons


class TestLaneAwareRankings:
    """Queue-depth-aware rank_lane, exercised on fabricated loads."""

    def make_task(self, order, *, interval_hours=6.0, last_audit_ms=None,
                  epsilon=0.05, replica_datacentres=()):
        return AuditTask(
            tenant="t",
            provider_name="p",
            file_id=f"f-{order}".encode(),
            datacentre="a",
            interval_hours=interval_hours,
            epsilon=epsilon,
            k_rounds=5,
            order=order,
            registered_ms=0.0,
            last_audit_ms=last_audit_ms,
            replica_datacentres=replica_datacentres,
        )

    def loaded(self, site, queue_depth, *, busy_ms=1000.0, n_dispatched=1):
        return LaneLoad(
            site=site,
            queue_depth=queue_depth,
            frontier_ms=0.0,
            busy_ms=busy_ms,
            n_dispatched=n_dispatched,
        )

    def test_unloaded_lane_matches_fleet_ranking(self):
        tasks = [self.make_task(i) for i in range(3)]
        lane = self.loaded(("p", "a"), 0)
        for strategy in (RiskWeightedStrategy(), DeadlineStrategy()):
            assert strategy.rank_lane(tasks, 0.0, lane, None) == (
                strategy.rank(tasks, 0.0)
            )

    def test_risk_weighted_scores_at_expected_service_time(self):
        # Task 0: low risk, long interval -- its big interval term
        # wins at dispatch time.  Task 1: high risk, short interval --
        # its exposure accrues ~4x faster (higher per-audit detection
        # probability), so two hours of queue backlog flip the order.
        strategy = RiskWeightedStrategy()
        t0 = self.make_task(
            0, interval_hours=30.0, epsilon=0.05, last_audit_ms=0.0
        )
        t1 = self.make_task(
            1, interval_hours=6.0, epsilon=0.50, last_audit_ms=0.0
        )
        now = 0.0
        assert strategy.rank([t0, t1], now)[0] is t0
        backlogged = self.loaded(
            ("p", "a"), 2, busy_ms=MS_PER_HOUR, n_dispatched=1
        )
        assert strategy.rank_lane([t0, t1], now, backlogged, None)[0] is t1

    def test_deadline_parks_hopeless_tasks_behind_salvageable(self):
        strategy = DeadlineStrategy()
        # Hopeless: due long ago with a tiny interval -- by service
        # time it will be overdue by far more than one interval.
        hopeless = self.make_task(0, interval_hours=0.1, last_audit_ms=0.0)
        salvageable = self.make_task(1, interval_hours=6.0, last_audit_ms=0.0)
        now = 1.0 * MS_PER_HOUR
        # Plain EDF puts the overdue task first...
        assert strategy.rank([hopeless, salvageable], now)[0] is hopeless
        # ...but a saturated lane reshuffles it behind the salvageable.
        backlogged = self.loaded(
            ("p", "a"), 2, busy_ms=MS_PER_HOUR, n_dispatched=1
        )
        ranked = strategy.rank_lane(
            [hopeless, salvageable], now, backlogged, None
        )
        assert ranked[0] is salvageable

    def test_work_stealing_requires_imbalance_and_replica(self):
        strategy = WorkStealingStrategy()
        local = self.make_task(0)
        remote_replicated = AuditTask(
            tenant="t", provider_name="p", file_id=b"r-1", datacentre="b",
            interval_hours=6.0, epsilon=0.05, k_rounds=5, order=1,
            registered_ms=0.0, replica_datacentres=("a",),
        )
        remote_plain = AuditTask(
            tenant="t", provider_name="p", file_id=b"r-2", datacentre="b",
            interval_hours=6.0, epsilon=0.05, k_rounds=5, order=2,
            registered_ms=0.0,
        )
        loads = [
            self.loaded(("p", "a"), 0),
            self.loaded(("p", "b"), 3),
        ]
        view = FleetLoadView(
            loads=loads,
            tasks_by_site={
                ("p", "a"): [local],
                ("p", "b"): [remote_replicated, remote_plain],
            },
        )
        ranked = strategy.rank_lane([local], 0.0, loads[0], view)
        # Local work first, then only the replicated sibling task.
        assert ranked == [local, remote_replicated]
        # A lane as backed up as the victim steals nothing.
        busy_thief = self.loaded(("p", "a"), 3)
        assert strategy.rank_lane([local], 0.0, busy_thief, view) == [local]
        # And without views (slot engine) it is the base policy.
        assert strategy.rank_lane([local], 0.0) == [local]
