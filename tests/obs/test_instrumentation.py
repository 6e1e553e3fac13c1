"""Observability does not perturb: fleets replay identically with it on.

Five pins:

* the metrics snapshot and the sim-domain span stream are a pure
  function of the seed (two identical runs, identical bytes);
* the snapshot's fleet counters are the ``FleetReport`` aggregates:
  the lane rows read the same series;
* a fully-instrumented run emits the *same report* as an
  uninstrumented one -- tracing reads injected clocks, never advances
  them, so the determinism anchors (slot-vs-event, same-seed replay)
  hold with the plane enabled;
* the TPA's verdict counters count every verdict, one-shot audits
  included, and agree with the outcomes it returned;
* every count is kept once, in its component's registry: the plane
  sums components (two with one name included) without merging their
  own reports, and a disabled plane keeps no component alive.
"""

import gc
import json
import weakref
from collections import Counter

from repro import obs
from repro.cloud.adversary import CorruptionAttack
from repro.crypto.rng import DeterministicRNG
from repro.fleet.strategies import RoundRobinStrategy
from repro.fleet.demo import build_demo_fleet
from repro.obs import MetricsRegistry, Tracer
from repro.service import AuditOrder
from repro.service.dispatch import AuditDispatcher
from tests.conftest import build_session, verdict_counts


def run_demo(*, engine="event", enabled=True, seed="obs-fleet"):
    registry = MetricsRegistry(enabled=enabled)
    trace = Tracer(maxlen=100_000, enabled=enabled)
    with obs.use_registry(registry, trace):
        fleet = build_demo_fleet(
            n_files=9,
            n_providers=3,
            strategy=RoundRobinStrategy(),
            seed=seed,
            violation="corrupt",
            slot_minutes=30.0,
            batch_size=4,
            engine=engine,
        )
        report = fleet.run(hours=6.0)
    return report, registry, trace


def family_total(registry, name):
    """Sum a counter family's children out of the JSON snapshot."""
    for family in registry.snapshot()["families"]:
        if family["name"] == name:
            return sum(series["value"] for series in family["series"])
    return 0.0


def family_series(registry, name):
    """A family's series out of the JSON snapshot, keyed by label values."""
    for family in registry.snapshot()["families"]:
        if family["name"] == name:
            return {
                tuple(series["labels"].values()): series["value"]
                for series in family["series"]
            }
    return {}


def sim_snapshot(registry):
    """The snapshot minus wall-valued families.

    ``*_seconds_total`` counters accumulate real compute cost (the
    vetted wall-clock measurements), so they differ run to run; every
    other family is a pure function of the seed.
    """
    snap = registry.snapshot()
    snap["families"] = [
        family
        for family in snap["families"]
        if not family["name"].endswith("_seconds_total")
    ]
    return snap


class TestDeterministicInstrumentation:
    def test_same_seed_same_snapshot_and_span_stream(self):
        _, first_reg, first_trace = run_demo()
        _, second_reg, second_trace = run_demo()
        assert json.dumps(
            sim_snapshot(first_reg), sort_keys=True
        ) == json.dumps(sim_snapshot(second_reg), sort_keys=True)
        # Wall-domain spans time real compute; only the sim stream is
        # replayable byte for byte.
        assert first_trace.spans("sim") == second_trace.spans("sim")
        assert len(first_trace.spans("sim")) > 0

    def test_fleet_spans_are_sim_domain_only(self):
        _, _, trace = run_demo()
        spans = trace.spans()
        # Fleet batch spans read lane clocks; TPA flush spans are the
        # vetted wall-domain measurement of real verify compute.
        assert any(span.domain == "sim" for span in spans)
        for span in spans:
            if span.domain == "sim":
                assert span.name.startswith("fleet.batch:")
                assert span.end_ms >= span.start_ms

    def test_counters_mirror_report_aggregates(self):
        report, registry, _ = run_demo()
        assert (
            family_total(registry, "repro_fleet_audits_total")
            == report.n_audits
        )
        assert (
            family_total(registry, "repro_fleet_batches_total")
            == report.n_batches
        )
        sites = [(lane.provider, lane.datacentre) for lane in report.lanes]
        assert family_series(registry, "repro_fleet_busy_ms_total") == dict(
            zip(sites, (lane.busy_ms for lane in report.lanes))
        )
        assert family_series(
            registry, "repro_fleet_disk_busy_ms_total"
        ) == dict(zip(sites, (lane.disk_busy_ms for lane in report.lanes)))
        assert sum(lane.busy_ms for lane in report.lanes) > 0.0


class TestNoPerturbation:
    def test_instrumented_event_report_identical_to_plain(self):
        instrumented, _, _ = run_demo(enabled=True)
        plain, _, _ = run_demo(enabled=False)
        # Frozen dataclasses compare field by field: every event,
        # timestamp and aggregate must match exactly.
        assert instrumented == plain

    def test_instrumented_slot_report_identical_to_plain(self):
        instrumented, _, _ = run_demo(engine="slot", enabled=True)
        plain, _, _ = run_demo(engine="slot", enabled=False)
        assert instrumented == plain

    def test_global_plane_untouched_after_scoped_runs(self):
        run_demo()
        assert not obs.metrics().enabled
        assert not obs.tracer().enabled


class TestTPAVerdictCounters:
    def test_one_shot_audits_are_counted(self):
        """A one-shot audit is a settle of size 1: counted like a flush."""
        registry = MetricsRegistry(enabled=True)
        with obs.use_registry(registry):
            session, file_id, _ = build_session("obs-tpa", file_bytes=4000)
            outcomes = [session.audit(file_id, k=5) for _ in range(3)]
            # A forced reject.
            outcomes.append(session.audit(file_id, k=5, rtt_max_ms=0.001))
        tpa = session.tpa
        n_settled = len(outcomes)
        n_accepted = sum(outcome.verdict.accepted for outcome in outcomes)
        assert (n_settled, n_accepted) == (4, 3)
        assert tpa.acceptance_rate() == n_accepted / n_settled
        assert family_series(registry, "repro_tpa_verdicts_total") == {
            (tpa.name, "accepted"): n_accepted,
            (tpa.name, "rejected"): n_settled - n_accepted,
        }
        flush_sizes = family_series(registry, "repro_tpa_flush_size")
        assert flush_sizes[(tpa.name,)]["count"] == n_settled
        assert flush_sizes[(tpa.name,)]["sum"] == n_settled


def dispatcher_for(session):
    return AuditDispatcher(
        tpa=session.tpa, verifier=session.verifier, provider=session.provider
    )


class TestOneSourcePerCount:
    def test_failure_series_are_failures_by_reason(self):
        """Reasons get their own family, one count per reason carried."""
        registry = MetricsRegistry(enabled=True)
        with obs.use_registry(registry):
            session, file_id, _ = build_session("obs-reasons", file_bytes=4000)
            outcomes = [session.audit(file_id, k=5) for _ in range(3)]
            session.provider.set_strategy(
                CorruptionAttack("home", 0.3, DeterministicRNG("obs-adv"))
            )
            outcomes += [session.audit(file_id, k=10) for _ in range(4)]
            outcomes += [
                session.audit(file_id, k=10, rtt_max_ms=0.001)
                for _ in range(2)
            ]
        tpa = session.tpa
        reasons = tpa.failures_by_reason()
        assert reasons == dict(Counter(
            reason
            for outcome in outcomes
            for reason in outcome.verdict.failure_reasons
        ))
        assert reasons["mac"] > 0 and reasons["timing"] >= 2
        assert family_series(registry, "repro_tpa_failures_total") == {
            (tpa.name, reason): count for reason, count in reasons.items()
        }
        verdicts = family_series(registry, "repro_tpa_verdicts_total")
        accepted = verdicts[(tpa.name, "accepted")]
        rejected = verdicts[(tpa.name, "rejected")]
        assert accepted / (accepted + rejected) == tpa.acceptance_rate()
        assert 0.0 < tpa.acceptance_rate() < 1.0
        # A rejected verdict may carry several reasons, which is why
        # they are not a label on the verdict counter.
        assert sum(reasons.values()) > rejected

    def test_plane_sums_same_named_components_that_stay_apart(self):
        registry = MetricsRegistry(enabled=True)
        with obs.use_registry(registry):
            sessions = [
                build_session(f"obs-pair-{i}", file_bytes=4000)
                for i in range(2)
            ]
            dispatchers = [dispatcher_for(session) for session, _, _ in sessions]
            (_, first_file, _), (_, second_file, _) = sessions
            dispatchers[0].process_batch(
                [AuditOrder(i, first_file, 3) for i in range(3)]
            )
            dispatchers[1].process_batch(
                [AuditOrder(i, second_file, 3) for i in range(4)]
                + [AuditOrder(9, b"unknown", 3)]
            )
        tpas = [session.tpa for session, _, _ in sessions]
        assert {tpa.name for tpa in tpas} == {"tpa"}
        own = [dispatcher.stats.to_dict() for dispatcher in dispatchers]
        assert [(d["n_orders"], d["n_errors"], d["n_flushes"]) for d in own] == [
            (3, 0, 1), (5, 1, 1)
        ]
        assert [verdict_counts(tpa) for tpa in tpas] == [
            {"accepted": 3, "rejected": 0}, {"accepted": 4, "rejected": 0}
        ]
        assert family_total(registry, "repro_dispatch_orders_total") == 8
        assert family_total(registry, "repro_dispatch_errors_total") == 1
        assert family_total(registry, "repro_dispatch_flushes_total") == 2
        flush_sizes = family_series(registry, "repro_dispatch_flush_size")[()]
        assert (flush_sizes["count"], flush_sizes["sum"], flush_sizes["max"]) == (
            2, 8.0, 5.0
        )
        assert family_series(registry, "repro_tpa_verdicts_total") == {
            ("tpa", "accepted"): 7, ("tpa", "rejected"): 0
        }
        assert family_series(registry, "repro_tpa_flush_size")[("tpa",)][
            "count"
        ] == 2

    def test_disabled_plane_keeps_no_component_alive(self):
        plane = MetricsRegistry(enabled=False)
        with obs.use_registry(plane):
            session, file_id, _ = build_session("obs-off", file_bytes=4000)
            dispatcher = dispatcher_for(session)
            dispatcher.process_batch([AuditOrder(1, file_id, 3)])
            session.audit(file_id, k=3, rtt_max_ms=0.001)
        assert dispatcher.stats.n_orders == 1
        assert session.tpa.acceptance_rate() == 0.5
        assert session.tpa.failures_by_reason() == {"timing": 1}
        registries = [session.tpa.metrics, dispatcher.stats.metrics]
        refs = [weakref.ref(registry) for registry in registries]
        del session, dispatcher, registries
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert plane.snapshot() == {"enabled": False, "families": []}
