#!/usr/bin/env python
"""A compliance officer's view: continuous auditing and reporting.

Models the regulatory workload from the paper's introduction (privacy
laws requiring data to remain in-country): a TPA audits an Australian
health-records file on a schedule, a corruption incident begins
part-way through, and the TPA's counters yield the compliance report --
acceptance rate, failure taxonomy, and the closed-form security
analysis a data owner would attach to the SLA.

Run:  python examples/compliance_audit.py
"""

from repro import CorruptionAttack, DeterministicRNG, GeoProofSession, city
from repro.analysis.reporting import format_table
from repro.analysis.security import analyse_deployment
from repro.geo.regions import AUSTRALIA_OUTLINE
from repro.por.parameters import TEST_PARAMS


def main() -> None:
    # SLA: the data must remain inside Australia (polygon geofence).
    session = GeoProofSession.build(
        datacentre_location=city("melbourne"),
        region=AUSTRALIA_OUTLINE,
        params=TEST_PARAMS,
        seed="compliance",
    )
    data = DeterministicRNG("health-records").random_bytes(60_000)
    record = session.outsource(b"health-records-vic", data)
    print(f"SLA region: {session.sla.region.describe()}")
    print(f"{record.n_segments} segments under audit\n")

    # Pre-signing due diligence: the closed-form security report.
    report = analyse_deployment(
        n_segments=record.n_segments,
        sla=session.sla,
        params=session.params,
        corruption_fraction=0.005,
        k_rounds=25,
    )
    print("security analysis (attached to the SLA):")
    for line in report.summary_lines():
        print(f"  - {line}")
    print()

    # Audit-frequency planning: catch 0.5 % corruption within a week of
    # daily audits, as cheaply as possible.
    from repro.analysis.scheduling import cheapest_schedule

    schedule = cheapest_schedule(
        epsilon=0.005,
        interval_hours=24.0,
        max_detection_latency_hours=24.0 * 7,
    )
    print(
        f"audit plan: k={schedule.k_rounds} rounds daily -> detection "
        f"p={schedule.per_audit_detection:.3f}/audit, 99 % confidence "
        f"within {schedule.hours_to_confidence/24:.0f} days, "
        f"{schedule.daily_audit_time_ms:.0f} ms verifier time/day\n"
    )

    # Twelve scheduled audits; a bit-rot incident begins at audit 7.
    timeline = []
    for audit_number in range(1, 13):
        if audit_number == 7:
            session.provider.set_strategy(
                CorruptionAttack("home", 0.08, DeterministicRNG("incident"))
            )
        outcome = session.audit(b"health-records-vic", k=25)
        timeline.append(
            [
                audit_number,
                round(session.verifier.clock.now_ms() / 1000.0, 2),
                outcome.verdict.accepted,
                ",".join(outcome.verdict.failure_reasons) or "-",
            ]
        )

    print(
        format_table(
            ["audit #", "sim time s", "accepted", "failures"],
            timeline,
            title="audit timeline (incident starts at audit 7)",
        )
    )

    print("\ncompliance summary:")
    print(f"  acceptance rate: {session.tpa.acceptance_rate():.0%}")
    print(f"  failure taxonomy: {session.tpa.failures_by_reason()}")
    incident_caught = any(
        not accepted for _, _, accepted, _ in timeline[6:]
    )
    print(f"  incident detected: {incident_caught}")
    assert incident_caught


if __name__ == "__main__":
    main()
