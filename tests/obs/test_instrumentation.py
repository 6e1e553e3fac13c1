"""Observability does not perturb: fleets replay identically with it on.

Four pins:

* the metrics snapshot and the sim-domain span stream are a pure
  function of the seed (two identical runs, identical bytes);
* the registry's fleet counters agree with the ``FleetReport``
  aggregates they mirror;
* a fully-instrumented run emits the *same report* as an
  uninstrumented one -- tracing reads injected clocks, never advances
  them, so the determinism anchors (slot-vs-event, same-seed replay)
  hold with the plane enabled;
* the TPA's verdict counters count every verdict, one-shot audits
  included, and agree with the TPA's own log.
"""

import json

from repro import obs
from repro.fleet.strategies import RoundRobinStrategy
from repro.fleet.demo import build_demo_fleet
from repro.obs import MetricsRegistry, Tracer
from tests.conftest import build_session


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
            for _ in range(3):
                session.audit(file_id, k=5)
            session.audit(file_id, k=5, rtt_max_ms=0.001)  # forced reject
        tpa = session.tpa
        n_logged = len(tpa.audit_log)
        n_accepted = sum(outcome.verdict.accepted for outcome in tpa.audit_log)
        assert (n_logged, n_accepted) == (4, 3)
        assert tpa.acceptance_rate() == n_accepted / n_logged
        assert family_series(registry, "repro_tpa_verdicts_total") == {
            (tpa.name, "accepted"): n_accepted,
            (tpa.name, "rejected"): n_logged - n_accepted,
        }
        flush_sizes = family_series(registry, "repro_tpa_flush_size")
        assert flush_sizes[(tpa.name,)]["count"] == n_logged
        assert flush_sizes[(tpa.name,)]["sum"] == n_logged
