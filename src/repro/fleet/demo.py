"""Canonical demo fleets shared by the CLI, bench and example.

:func:`build_demo_fleet` assembles the reference multi-tenant workload:
``n_providers`` providers spread over real city sites, tenant files
dealt provider-by-provider, and (optionally) one *violating* provider
onboarded last whose files are declared high-risk -- the configuration
the scheduling-strategy comparison in ``benchmarks/bench_fleet.py``
measures detection latency on.

The violation modes mirror :mod:`repro.cloud.adversary`:

* ``"corrupt"`` -- the violator serves locally but a fraction of each
  file's segments are bit-rotted (caught by MAC checks);
* ``"relay"`` -- the violator quietly relocated every file to a remote
  site and forwards audits to it (caught by the timing bound).

:func:`build_contention_fleet` assembles the shared-spindle reference
scenario (one provider, N audit lanes on M storage spindles, a hot
home lane whose last files are bit-rotted *at rest* across every
replica) -- the configuration the lane-aware scheduling comparison and
the ``bench_fleet`` contention gate measure time-to-detection on.
"""

from __future__ import annotations

from repro.cloud.adversary import CorruptionAttack, RelayAttack
from repro.cloud.provider import CloudProvider, DataCentre
from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError
from repro.geo.datasets import city
from repro.por.file_format import Segment
from repro.storage.hdd import IBM_36Z15

from repro.fleet.fleet import AuditFleet
from repro.fleet.strategies import AuditStrategy

#: Home sites for demo providers, in onboarding order.
PROVIDER_SITES = [
    "brisbane",
    "sydney",
    "melbourne",
    "perth",
    "adelaide",
    "hobart",
]

#: Where a relaying violator actually keeps the data.
RELAY_SITE = "singapore"


def build_demo_fleet(
    *,
    n_files: int,
    n_providers: int = 3,
    strategy: AuditStrategy | None = None,
    seed: str = "fleet-demo",
    violation: str | None = "corrupt",
    violation_epsilon: float = 0.10,
    honest_epsilon: float = 0.02,
    file_bytes: int = 2_000,
    interval_hours: float = 6.0,
    slot_minutes: float = 30.0,
    batch_size: int = 4,
    k_rounds: int = 10,
    engine: str = "slot",
    lane_queue_limit: int = 4,
    replicas: int = 1,
    spindles: int | None = None,
    sites_per_provider: int | None = None,
) -> AuditFleet:
    """Build the reference fleet: one tenant per provider, files dealt
    evenly, the last provider optionally misbehaving.

    Files are registered honest-providers-first so the violator's
    files sit at the *back* of the registration order -- the worst
    case for naive rotation and exactly the case risk-weighted
    scheduling is built for (the violator's tenant declares the higher
    ``violation_epsilon`` risk tolerance).

    ``replicas`` places that many audited copies of every file across
    each provider's sites (each provider is onboarded with at least
    that many sites; override with ``sites_per_provider``) and
    ``spindles`` backs each provider's sites with only that many
    storage arrays -- together the replicated-placement / shared-
    spindle knobs the contention scenarios turn.
    """
    if n_providers < 1:
        raise ConfigurationError(f"need at least one provider, got {n_providers}")
    if n_providers > len(PROVIDER_SITES):
        raise ConfigurationError(
            f"demo fleet supports at most {len(PROVIDER_SITES)} providers"
        )
    if n_files < n_providers:
        raise ConfigurationError(
            f"need at least one file per provider, got {n_files}"
        )
    if violation not in (None, "corrupt", "relay"):
        raise ConfigurationError(f"unknown violation mode {violation!r}")
    n_sites = (
        sites_per_provider
        if sites_per_provider is not None
        else max(1, replicas)
    )
    if not 1 <= n_sites <= len(PROVIDER_SITES):
        raise ConfigurationError(
            f"sites per provider must be in 1..{len(PROVIDER_SITES)}, "
            f"got {n_sites}"
        )
    fleet = AuditFleet(
        seed=seed,
        strategy=strategy,
        slot_minutes=slot_minutes,
        batch_size=batch_size,
        default_k_rounds=k_rounds,
        default_interval_hours=interval_hours,
        engine=engine,
        lane_queue_limit=lane_queue_limit,
    )
    data_rng = DeterministicRNG(f"{seed}-data")
    violator = f"provider-{n_providers}" if violation else None
    per_provider = [
        n_files // n_providers + (1 if i < n_files % n_providers else 0)
        for i in range(n_providers)
    ]
    for i in range(n_providers):
        name = f"provider-{i + 1}"
        # Each provider's sites wrap around the shared city list so
        # two providers' site sets differ but stay deterministic.
        sites = [
            PROVIDER_SITES[(i + offset) % len(PROVIDER_SITES)]
            for offset in range(n_sites)
        ]
        site = sites[0]
        fleet.add_provider(
            name,
            [(s, city(s)) for s in sites],
            spindles=spindles,
        )
        for j in range(per_provider[i]):
            fleet.register(
                tenant=f"tenant-{i + 1}",
                provider=name,
                datacentre=site,
                file_id=f"{name}-file-{j + 1}".encode(),
                data=data_rng.fork(f"{name}-{j}").random_bytes(file_bytes),
                epsilon=(
                    violation_epsilon if name == violator else honest_epsilon
                ),
                replicas=replicas,
            )
    if violator is not None:
        _install_violation(
            fleet,
            violator,
            PROVIDER_SITES[n_providers - 1],
            mode=violation,
            epsilon=violation_epsilon,
            seed=seed,
        )
    return fleet


def _install_violation(
    fleet: AuditFleet,
    provider_name: str,
    home_site: str,
    *,
    mode: str,
    epsilon: float,
    seed: str,
) -> None:
    """Make ``provider_name`` violate its SLAs in the requested mode."""
    provider = fleet.provider(provider_name)
    if mode == "corrupt":
        provider.set_strategy(
            CorruptionAttack(
                home_site,
                epsilon,
                DeterministicRNG(f"{seed}-corruption"),
            )
        )
        return
    # Relay: the data was quietly moved offshore; the contracted site
    # forwards every audit round over the Internet.
    provider.add_datacentre(
        DataCentre(RELAY_SITE, city(RELAY_SITE), disk=IBM_36Z15)
    )
    for task in fleet.tasks():
        if task.provider_name == provider_name:
            provider.relocate(task.file_id, RELAY_SITE)
    provider.set_strategy(RelayAttack(home_site, RELAY_SITE))


def rot_at_rest(
    provider: CloudProvider,
    file_id: bytes,
    *,
    fraction: float = 1.0,
    seed: str = "rot-at-rest",
) -> int:
    """Bit-rot a stored file in place, identically at every holder.

    Unlike :class:`~repro.cloud.adversary.CorruptionAttack` (a
    *serving* strategy pinned to one site), this corrupts the bytes
    at rest: the same pseudorandomly chosen ``fraction`` of segment
    indices gets its payload flipped in every store holding the file
    (shared storage arrays are rotted once), tags left intact so MAC
    verification catches it no matter which replica site answers the
    audit.  The provider stays "honest" -- it serves exactly what its
    disks hold -- which is what lets the contention scenarios combine
    corruption with nearest-copy replicated serving.

    Returns the number of segment indices rotted per copy.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError(
            f"fraction must be in [0, 1], got {fraction}"
        )
    rng = DeterministicRNG(f"{seed}-{file_id.hex()}")
    rotted: set[int] | None = None
    seen_stores: set[int] = set()
    for name in provider.datacentre_names():
        server = provider.datacentre(name).server
        if id(server) in seen_stores or not server.store.exists(file_id):
            continue
        seen_stores.add(id(server))
        n = server.store.n_segments(file_id)
        if rotted is None:
            n_rot = round(fraction * n)
            rotted = set(rng.sample_indices(n, n_rot))
        for index in rotted:
            segment = server.store.get_segment(file_id, index)
            payload = bytearray(segment.payload)
            payload[0] ^= 0xFF  # single-byte rot: small but tag-fatal
            server.store.overwrite_segment(
                file_id,
                Segment(
                    index=segment.index,
                    payload=bytes(payload),
                    tag=segment.tag,
                ),
            )
    return len(rotted) if rotted is not None else 0


#: Sites of the contention scenario's single provider, hot lane first.
CONTENTION_SITES = ["brisbane", "sydney", "melbourne", "adelaide"]


def build_contention_fleet(
    *,
    strategy: AuditStrategy | None = None,
    seed: str = "contention",
    n_sites: int = 4,
    spindles: int | None = 2,
    hot_files: int = 8,
    cold_files_per_site: int = 1,
    rotted_files: int = 2,
    rot_fraction: float = 1.0,
    replicas: int | None = None,
    slot_minutes: float = 0.005,
    batch_size: int = 2,
    k_rounds: int = 6,
    interval_hours: float = 0.05,
    file_bytes: int = 1_500,
    lane_queue_limit: int = 4,
    engine: str = "event",
) -> tuple[AuditFleet, list[bytes]]:
    """The shared-spindle contention scenario (see module docstring).

    One provider, ``n_sites`` audit lanes on ``spindles`` storage
    arrays (``None`` = dedicated).  The first site is the *hot* lane:
    ``hot_files`` files homed there, every one replicated across all
    sites (``replicas`` defaults to ``n_sites``), registered ahead of
    one cold file per remaining site.  The **last** ``rotted_files``
    hot files are bit-rotted at rest on every copy -- so a fair sweep
    of the hot lane reaches them last, while an idle sibling lane that
    steals the hot lane's backlog reaches them sooner.  Slots are
    deliberately shorter than a batch so the hot lane saturates its
    bounded queue (the condition work stealing keys on).

    Returns ``(fleet, rotted_file_ids)``; measure time-to-detection as
    the worst detection hour across the returned ids.
    """
    if not 2 <= n_sites <= len(CONTENTION_SITES):
        raise ConfigurationError(
            f"n_sites must be in 2..{len(CONTENTION_SITES)}, got {n_sites}"
        )
    if not 0 <= rotted_files <= hot_files:
        raise ConfigurationError(
            f"rotted_files must be in 0..{hot_files}, got {rotted_files}"
        )
    n_replicas = replicas if replicas is not None else n_sites
    fleet = AuditFleet(
        seed=seed,
        strategy=strategy,
        slot_minutes=slot_minutes,
        batch_size=batch_size,
        default_k_rounds=k_rounds,
        default_interval_hours=interval_hours,
        engine=engine,
        lane_queue_limit=lane_queue_limit,
    )
    sites = CONTENTION_SITES[:n_sites]
    provider = fleet.add_provider(
        "acme",
        [(s, city(s)) for s in sites],
        spindles=spindles,
    )
    data_rng = DeterministicRNG(f"{seed}-data")
    hot = sites[0]
    for j in range(hot_files):
        fleet.register(
            tenant="hot-tenant",
            provider="acme",
            datacentre=hot,
            file_id=f"hot-{j + 1}".encode(),
            data=data_rng.fork(f"hot-{j}").random_bytes(file_bytes),
            epsilon=0.10,
            replicas=n_replicas,
        )
    for site in sites[1:]:
        for j in range(cold_files_per_site):
            fleet.register(
                tenant=f"{site}-tenant",
                provider="acme",
                datacentre=site,
                file_id=f"{site}-{j + 1}".encode(),
                data=data_rng.fork(f"{site}-{j}").random_bytes(file_bytes),
                epsilon=0.02,
            )
    rotted_ids = [
        f"hot-{hot_files - offset}".encode()
        for offset in range(rotted_files)
    ]
    for file_id in rotted_ids:
        rot_at_rest(
            provider, file_id, fraction=rot_fraction, seed=f"{seed}-rot"
        )
    return fleet, sorted(rotted_ids)
