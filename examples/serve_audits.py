#!/usr/bin/env python
"""GeoProof as a service: the audit daemon, live tenants, and failover.

The quickstart runs audits as in-process function calls.  This example
runs the same deployment the way the paper describes it operating: a
third-party auditor *daemon* serving audits over TCP to many tenants
at once, with its storage plane behind the circuit-breaker registry.

1. build a session and outsource three files, then mirror the encoded
   containers onto two RAM backends -- ``rack-a`` (primary) and
   ``rack-b`` (its failover twin);
2. start an :class:`~repro.service.AuditDaemon` whose provider is the
   :class:`~repro.service.ProviderRegistry` -- the daemon never talks
   to a backend directly, it serves along the health-checked chain;
3. three tenants connect concurrently and pipeline audit orders over
   one socket each; every verdict comes back accepted;
4. ``rack-a`` suffers an outage mid-service.  The first few requests
   feed its circuit breaker (three consecutive failures open the
   circuit); every audit still succeeds because the chain falls
   through to ``rack-b`` -- tenants never see the outage;
5. ``rack-a`` comes back.  After the back-off window the registry lets
   one half-open probe through; it succeeds and the circuit closes.

Run:  python examples/serve_audits.py
"""

import asyncio

from repro import DeterministicRNG, city
from repro.core.session import GeoProofSession
from repro.errors import StorageUnavailableError
from repro.por.parameters import TEST_PARAMS
from repro.service import AuditClient, AuditDaemon, ProviderRegistry
from repro.storage.contract import InMemoryStorage

N_FILES = 3
N_TENANTS = 3
AUDITS_PER_TENANT = 12
PROBE_DELAY_MS = 200.0


class FlakyRack(InMemoryStorage):
    """A RAM backend with an outage switch the demo can flip."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.down = False

    def lookup(self, file_id, index):
        if self.down:
            raise StorageUnavailableError(
                f"rack {self.name!r} offline (simulated outage)"
            )
        return super().lookup(file_id, index)


def build_deployment():
    """Session + two mirrored racks behind a circuit-breaker registry."""
    session = GeoProofSession.build(
        datacentre_location=city("brisbane"),
        params=TEST_PARAMS,
        min_rounds=8,
        seed="serve-audits-example",
    )
    data_rng = DeterministicRNG("serve-audits-data")
    file_ids = []
    for i in range(N_FILES):
        file_id = f"doc-{i}".encode()
        session.outsource(file_id, data_rng.fork(str(i)).random_bytes(4_000))
        file_ids.append(file_id)

    rack_a = FlakyRack("rack-a")
    rack_b = InMemoryStorage("rack-b")
    for file_id in file_ids:
        container = session.provider.home_of(file_id).server.store.file_meta(
            file_id
        )
        rack_a.put_file(container)
        rack_b.put_file(container)

    registry = ProviderRegistry(
        unhealthy_after=3, probe_delay_ms=PROBE_DELAY_MS
    )
    registry.add(rack_a, fallbacks=("rack-b",))
    registry.add(rack_b)
    return session, registry, rack_a, file_ids


async def tenant(name: str, port: int, file_ids) -> int:
    """One tenant: a single connection pipelining a batch of orders."""
    async with AuditClient("127.0.0.1", port) as client:
        orders = [
            (file_ids[i % len(file_ids)], 2)
            for i in range(AUDITS_PER_TENANT)
        ]
        verdicts = await client.audit_many(orders)
    accepted = sum(verdict.accepted for verdict in verdicts)
    print(f"  tenant {name}: {accepted}/{len(verdicts)} audits accepted")
    return accepted


async def main() -> None:
    session, registry, rack_a, file_ids = build_deployment()
    daemon = AuditDaemon(
        tpa=session.tpa,
        verifier=session.verifier,
        provider=registry,
        flush_batch=16,
    )
    await daemon.start()
    print(f"daemon serving on {daemon.host}:{daemon.port}")
    print(f"storage chain: {' -> '.join(registry.chain('rack-a'))}\n")
    try:
        # 3. Concurrent tenants against the healthy primary.
        print("concurrent tenants, rack-a healthy:")
        accepted = await asyncio.gather(
            *(
                tenant(name, daemon.port, file_ids)
                for name in ("alice", "bob", "carol")
            )
        )
        assert sum(accepted) == N_TENANTS * AUDITS_PER_TENANT
        assert registry.status("rack-a").n_successes > 0
        assert registry.status("rack-b").n_successes == 0

        # 4. The outage: rack-a starts refusing reads mid-service.
        rack_a.down = True
        print("\nrack-a goes dark; tenants keep auditing:")
        accepted = await asyncio.gather(
            *(
                tenant(name, daemon.port, file_ids)
                for name in ("alice", "bob", "carol")
            )
        )
        assert sum(accepted) == N_TENANTS * AUDITS_PER_TENANT
        status = registry.status("rack-a")
        rack_b_served = registry.status("rack-b").n_successes
        print(
            f"  rack-a circuit: {status.state} after "
            f"{status.consecutive_failures} consecutive failures; "
            f"rack-b served {rack_b_served} lookups"
        )
        assert not registry.is_healthy("rack-a")
        assert rack_b_served > 0

        # 5. Recovery: after the back-off window one probe re-admits it.
        rack_a.down = False
        await asyncio.sleep(PROBE_DELAY_MS / 1000.0 * 1.5)
        print("\nrack-a repaired; next audit is the half-open probe:")
        await tenant("alice", daemon.port, file_ids)
        status = registry.status("rack-a")
        print(
            f"  rack-a circuit: {status.state} "
            f"({status.n_probes} probe(s), "
            f"{status.n_successes} successes on record)"
        )
        assert registry.is_healthy("rack-a")
    finally:
        await daemon.stop()
    stats = daemon.stats
    print(
        f"\ndaemon served {stats.n_orders} orders in {stats.n_flushes} "
        f"flushes ({stats.n_errors} errors) -- no tenant ever saw the "
        "outage. done."
    )


if __name__ == "__main__":
    asyncio.run(main())
