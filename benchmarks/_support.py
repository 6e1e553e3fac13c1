"""Shared deployment builders for the benchmark suite."""

from __future__ import annotations

from repro.cloud.provider import CloudProvider, DataCentre
from repro.cloud.replication import ReplicaSite, ReplicationAuditor
from repro.cloud.sla import SLAPolicy
from repro.cloud.tpa import ThirdPartyAuditor
from repro.cloud.verifier import VerifierDevice
from repro.crypto.rng import DeterministicRNG
from repro.geo.datasets import city
from repro.geo.regions import CircularRegion
from repro.netsim.clock import SimClock
from repro.por.parameters import TEST_PARAMS
from repro.por.setup import PORKeys, setup_file

REPLICA_SITES = ["sydney", "perth", "singapore"]


def build_replication_deployment(kept_copies: list[str]):
    """A 3-site replication contract with copies only at ``kept_copies``.

    ``kept_copies`` must include "sydney" (the upload site).  Returns
    (provider, replication_auditor) ready for ``audit_round``.
    """
    rng = DeterministicRNG(f"replication-bench-{'-'.join(kept_copies)}")
    provider = CloudProvider("acme")
    for name in REPLICA_SITES:
        provider.add_datacentre(DataCentre(name, city(name)))
    keys = PORKeys.derive(b"replication-bench-master-key")
    data = rng.fork("data").random_bytes(20_000)
    encoded = setup_file(data, keys, b"f", TEST_PARAMS)
    provider.upload(encoded, "sydney")
    for name in kept_copies:
        if name != "sydney":
            provider.replicate_to(b"f", name)
    tpa = ThirdPartyAuditor("tpa", rng.fork("tpa"))
    clock = SimClock()
    auditor = ReplicationAuditor(tpa)
    registration_sla = None
    for name in REPLICA_SITES:
        sla = SLAPolicy(region=CircularRegion(city(name), 100.0))
        registration_sla = registration_sla or sla
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
        b"f", encoded.n_segments, keys.mac_key, TEST_PARAMS, registration_sla
    )
    return provider, auditor
