"""Deployments, order plans and the scalar oracle for the benchmark.

Everything here is a pure function of the workload seed: the daemon
process and the oracle twin call the same functions, so a twin made
from the same seed holds byte-identical files, keys and disk state.
Only the public ``repro`` API is used.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil

from repro.cloud.tpa import ThirdPartyAuditor
from repro.core.session import GeoProofSession
from repro.crypto.rng import DeterministicRNG
from repro.crypto.schnorr import TEST_GROUP, SchnorrKeyPair
from repro.fleet.demo import build_demo_fleet, rot_at_rest
from repro.geo.coords import GeoPoint
from repro.por.parameters import TEST_PARAMS
from repro.service.registry import ProviderRegistry
from repro.storage.contract import (
    InMemoryStorage,
    OnDiskStorage,
    SimulatedHDDStorage,
)

from load import verdict_digest

BRISBANE = GeoPoint(-27.4698, 153.0251)

#: Bound on the TPA audit log, as GeoProofSession.build advises for
#: long-running deployments, so memory reflects steady state.
TPA_MAX_LOG = 1_024

#: Daemon batching: the ``repro serve`` defaults.
FLUSH_BATCH = 64
FLUSH_MS = 5.0

#: audit-light: two 8 kB files, TEST_PARAMS, k=2, 512-bit group.
LIGHT_FILES = 2
LIGHT_FILE_BYTES = 8_000
LIGHT_K = 2

#: audit-deep: 24 files of 16 kB, default params and 1024-bit group;
#: every fourth file has 5 % of its segments bit-rotted at rest.
DEEP_FILES = 24
DEEP_FILE_BYTES = 16_000
DEEP_KS = (8, 16, 32)
DEEP_ROT_EVERY = 4
DEEP_ROT_FRACTION = 0.05

#: fleet-campaign: the demo fleet on the event engine, three providers
#: (the last corrupting), every file replicated at two sites that share
#: one spindle per provider.  Slots are shorter than a batch, so lanes
#: back up into their bounded queues.
FLEET_FILES = 12
FLEET_FILE_BYTES = 2_000
FLEET_HOURS = 0.025
FLEET_KWARGS = dict(
    n_providers=3,
    violation="corrupt",
    engine="event",
    replicas=2,
    spindles=1,
    slot_minutes=0.004,
    batch_size=4,
    interval_hours=0.002,
    lane_queue_limit=4,
    file_bytes=FLEET_FILE_BYTES,
)


def light_session(seed: int) -> GeoProofSession:
    session = GeoProofSession.build(
        datacentre_location=BRISBANE,
        params=TEST_PARAMS,
        min_rounds=LIGHT_K,
        seed=f"perfbench-light-{seed}",
        tpa_max_log=TPA_MAX_LOG,
    )
    session.verifier.keypair = SchnorrKeyPair.generate(
        TEST_GROUP, seed=f"perfbench-light-{seed}-verifier".encode()
    )
    return session


def light_onboard(session: GeoProofSession, seed: int) -> InMemoryStorage:
    """Outsource the two files and copy them to the RAM backend."""
    data_rng = DeterministicRNG(f"perfbench-light-{seed}-data")
    backend = InMemoryStorage("ram")
    for i in range(LIGHT_FILES):
        file_id = light_file_id(i)
        session.outsource(
            file_id, data_rng.fork(str(i)).random_bytes(LIGHT_FILE_BYTES)
        )
        backend.put_file(
            session.provider.home_of(file_id).server.store.file_meta(file_id)
        )
    return backend


def light_file_id(i: int) -> bytes:
    return f"light-{i}".encode()


def light_order(i: int) -> tuple[bytes, int]:
    """The i-th audit-light order: the two files in turn, k=2."""
    return light_file_id(i % LIGHT_FILES), LIGHT_K


def deep_session(seed: int) -> GeoProofSession:
    return GeoProofSession.build(
        datacentre_location=BRISBANE,
        min_rounds=DEEP_KS[0],
        seed=f"perfbench-deep-{seed}",
        tpa_max_log=TPA_MAX_LOG,
    )


def deep_file_id(i: int) -> bytes:
    return f"deep-{i}".encode()


def deep_onboard(
    session: GeoProofSession, seed: int, disk_root: str
) -> ProviderRegistry:
    """Outsource every file, write it to the on-disk fallback, rot some.

    Returns the registry the daemon serves from: an uncached simulated
    HDD adopting the session's own server, falling back to the on-disk
    copies.  The rot happens after the on-disk writes, so only the
    primary holds rotted segments.
    """
    data_rng = DeterministicRNG(f"perfbench-deep-{seed}-data")
    on_disk = OnDiskStorage("disk", disk_root)
    for i in range(DEEP_FILES):
        file_id = deep_file_id(i)
        session.outsource(
            file_id, data_rng.fork(str(i)).random_bytes(DEEP_FILE_BYTES)
        )
        on_disk.put_file(
            session.provider.home_of(file_id).server.store.file_meta(file_id)
        )
    for i in range(0, DEEP_FILES, DEEP_ROT_EVERY):
        rot_at_rest(
            session.provider,
            deep_file_id(i),
            fraction=DEEP_ROT_FRACTION,
            seed=f"perfbench-deep-{seed}-rot",
        )
    registry = ProviderRegistry()
    registry.add(
        SimulatedHDDStorage(
            "hdd", server=session.provider.datacentre("home").server
        ),
        fallbacks=("disk",),
    )
    registry.add(on_disk)
    return registry


class DeepPlan:
    """The seeded audit-deep order stream.

    Files are drawn uniformly; k comes in runs of 1..16 equal values so
    the dispatcher's equal-k chunking has runs to find and breaks to
    make.  ``order(i)`` is a pure function of the seed and ``i``.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"perfbench-deep-plan-{seed}")
        self._orders: list[tuple[bytes, int]] = []

    def order(self, i: int) -> tuple[bytes, int]:
        while len(self._orders) <= i:
            k = self._rng.choice(DEEP_KS)
            for _ in range(self._rng.randint(1, 16)):
                self._orders.append(
                    (deep_file_id(self._rng.randrange(DEEP_FILES)), k)
                )
        return self._orders[i]


def deep_oracle(seed: int, n_orders: int, disk_root: str) -> list[bytes]:
    """Verdict digests of the first ``n_orders`` scalar audits.

    A twin deployment built from the same seed replays the order
    stream through ``ThirdPartyAuditor.audit``, the scalar anchor the
    daemon's batched path must match order for order.
    """
    session = deep_session(seed)
    try:
        registry = deep_onboard(session, seed, disk_root)
        tpa: ThirdPartyAuditor = session.tpa
        plan = DeepPlan(seed)
        digests = []
        for i in range(n_orders):
            file_id, k = plan.order(i)
            outcome = tpa.audit(file_id, session.verifier, registry, k=k)
            digests.append(verdict_digest(outcome.verdict))
        return digests
    finally:
        shutil.rmtree(disk_root, ignore_errors=True)


def build_fleet(seed: int, *, strategy):
    return build_demo_fleet(
        n_files=FLEET_FILES,
        seed=f"perfbench-fleet-{seed}",
        strategy=strategy,
        **FLEET_KWARGS,
    )


def fleet_digest(report_dict: dict) -> str:
    """Digest of a fleet report with its wall-clock fields removed."""
    clean = dict(report_dict)
    clean.pop("total_verify_seconds", None)
    clean["lanes"] = [
        {key: value for key, value in lane.items() if key != "verify_seconds"}
        for lane in clean.get("lanes", [])
    ]
    blob = json.dumps(clean, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def scratch_dir(root: str, label: str) -> str:
    path = os.path.join(root, ".perfbench", f"{label}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
