#!/usr/bin/env python
"""Verifying *replication diversity* with composed GeoProof audits.

The paper cites Benson et al. (CCSW'11) -- "do you know where your
cloud files are?" -- on proving a provider keeps replicas in diverse
geolocations.  GeoProof composes into exactly that check: one verifier
device per contracted replica site, one timed audit each, and a
pairwise-separation rule so two nearby sites can't double-count one
physical copy.

The scenario: a 3-replica contract (Sydney, Perth, Singapore).  The
provider initially keeps only the Sydney copy and quietly serves the
other audits from it; the replication audit credits one replica.  After
honest replication, all three are witnessed.

Replication is also a *scheduling* resource: the fleet engine places
replicas with ``AuditFleet.register(..., replicas=N)`` so work-stealing
lanes can run a saturated home lane's audits at a sibling replica site
(see ``examples/fleet_audit.py``), and bridges back to this diversity
check via ``AuditFleet.audit_replicas()``, whose round queues its
lookups on the fleet's spindles like any audit batch.

Run:  python examples/replication_audit.py
"""

from repro import CloudProvider, DataCentre, DeterministicRNG, SLAPolicy, city
from repro.analysis.reporting import format_table
from repro.cloud.replication import ReplicaSite, ReplicationAuditor
from repro.cloud.tpa import ThirdPartyAuditor
from repro.cloud.verifier import VerifierDevice
from repro.geo.regions import CircularRegion
from repro.netsim.clock import SimClock
from repro.por.parameters import TEST_PARAMS
from repro.por.setup import PORKeys, setup_file

SITES = ["sydney", "perth", "singapore"]


def audit_and_print(auditor, provider, label):
    verdict = auditor.audit_round(b"contract-db", provider, k=12)
    rows = []
    for name, outcome in verdict.outcomes.items():
        rows.append(
            [
                name,
                outcome.verdict.accepted,
                round(outcome.verdict.max_rtt_ms, 1),
                round(outcome.verdict.rtt_max_ms, 1),
            ]
        )
    print(format_table(["site", "audit ok", "max RTT ms", "budget ms"], rows, title=label))
    print(
        f"-> distinct replicas witnessed: {verdict.distinct_replicas} / 3 "
        f"(contract met: {verdict.meets(3)})\n"
    )
    return verdict


def main() -> None:
    rng = DeterministicRNG("replication-example")
    provider = CloudProvider("acme", rng=rng.fork("provider"))
    for name in SITES:
        provider.add_datacentre(DataCentre(name, city(name)))

    keys = PORKeys.derive(b"replication-example-master!!")
    data = rng.fork("data").random_bytes(30_000)
    encoded = setup_file(data, keys, b"contract-db", TEST_PARAMS)
    provider.upload(encoded, "sydney")  # ...and only Sydney

    tpa = ThirdPartyAuditor("tpa", rng.fork("tpa"))
    clock = SimClock()
    auditor = ReplicationAuditor(tpa)
    sydney_sla = None
    for name in SITES:
        sla = SLAPolicy(region=CircularRegion(city(name), 100.0))
        sydney_sla = sydney_sla or sla
        auditor.add_site(
            ReplicaSite(
                name=name,
                verifier=VerifierDevice(
                    f"verifier-{name}".encode(),
                    city(name),
                    clock=clock,
                    rng=rng.fork(f"verifier-{name}"),
                ),
                sla=sla,
            )
        )
    tpa.register_file(
        b"contract-db", encoded.n_segments, keys.mac_key, TEST_PARAMS, sydney_sla
    )

    verdict = audit_and_print(
        auditor, provider, "round 1: provider kept only the Sydney copy"
    )
    assert verdict.distinct_replicas == 1

    provider.replicate_to(b"contract-db", "perth")
    provider.replicate_to(b"contract-db", "singapore")
    verdict = audit_and_print(auditor, provider, "round 2: honest 3-way replication")
    assert verdict.meets(3)

    print(
        "Each accepted audit pins a copy within that site's timing radius"
        f" (~{auditor.sites()[0].timing_radius_km:.0f} km); sites farther"
        "\napart than two radii cannot share one copy, so the count is a"
        "\nlower bound on physically distinct replicas."
    )


if __name__ == "__main__":
    main()
