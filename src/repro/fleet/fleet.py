"""Fleet-scale auditing: per-datacentre audit lanes on a shared timeline.

:class:`AuditFleet` scales the single-owner
:class:`~repro.core.session.GeoProofSession` (Fig. 4) up to the
production shape the ROADMAP targets: **many tenants** outsource
**many files** across **multiple cloud providers**, each provider gets
its own :class:`~repro.cloud.tpa.ThirdPartyAuditor` and one
tamper-proof :class:`~repro.cloud.verifier.VerifierDevice` per data
centre, all merged onto one fleet-wide timeline so detection latencies
are comparable fleet-wide.

Concurrency model
-----------------
GeoProof places one verifier appliance on the LAN of *each* data
centre, so audits at different sites are physically concurrent.  The
fleet models that with an **audit lane** per (provider, data centre)
site: a :class:`~repro.netsim.lanes.LaneClock` worker clock plus a
bounded in-flight queue (:class:`~repro.netsim.lanes.Lane`), driven by
the discrete-event :class:`~repro.netsim.events.EventScheduler` on the
fleet's global clock.  Every ``slot_minutes`` each lane dispatches one
**batch** -- up to ``batch_size`` audits of that site's files, ranked
by the installed :class:`~repro.fleet.strategies.AuditStrategy`
(:meth:`~repro.fleet.strategies.AuditStrategy.rank_lane`) -- and works
through it on its *own* clock, so a slow disk seek at one site never
delays audits at another, and each TPA effectively dispatches to all
of its sites concurrently.  A lane that overruns its slot queues
subsequent dispatches at its frontier, up to ``lane_queue_limit``
outstanding batches; beyond that it sheds slots (counted per lane in
the report).  Batching still amortises the per-dispatch overhead: one
batch pays ``dispatch_overhead_ms`` once where unbatched auditing
would pay it per file.

Two engines run that batch body (:meth:`AuditFleet._execute_batch`:
stage every audit, flush the verdicts once, record events, charge the
lane, record the span) and differ only in who decides when and where
a batch runs:

* ``engine="event"`` -- the concurrent lane model above.
* ``engine="slot"`` -- the serial loop: one batch per slot
  *fleet-wide*, every audit on the single global clock.  It is not the
  event engine with one fleet-wide lane: it serialises sites (an
  overrunning batch delays the next one everywhere) and never sheds
  load, so on a multi-site fleet the two engines produce different
  streams (pinned by test).  It stays as the baseline the concurrency
  speedup is measured against (``benchmarks/bench_fleet.py``) and as
  the semantics anchor: with a single data centre the two engines
  produce identical audit streams (pinned by test).

Shared spindles and replicated placement
----------------------------------------
Every fleet storage server runs in the queued shared-resource mode
(:class:`~repro.netsim.resources.SpindleQueue` attached, requester
clocks bound per batch), so Delta-t_L -- the disk term GeoProof's
security argument leans on -- degrades honestly under load instead of
being a free private constant per lane:

* ``add_provider(..., spindles=M)`` backs the provider's N sites with
  only M storage arrays (site i on spindle ``i % M``); with N > M
  several lanes' batched lookups pile onto one spindle and every
  queued millisecond inflates the observed RTT (surfaced as
  per-spindle wait/utilization and contention-induced timeout counts
  in the :class:`FleetReport`).
* ``register(..., replicas=R)`` places audited copies of a file at R
  sites of its provider (reusing
  :class:`~repro.cloud.replication.ReplicaSite` for the per-site
  verifier + SLA pairing), which is what lets lane-aware strategies
  (:class:`~repro.fleet.strategies.WorkStealingStrategy`) migrate an
  audit from a saturated home lane to an idle sibling lane holding a
  replica -- the audit then runs through the replica site's verifier
  against the replica site's SLA region and budget.

With ``replicas=1`` and dedicated spindles every queue wait is
identically zero and nothing is stealable, so the audit stream is
byte-identical to the pre-contention model (pinned by test).

Usage::

    fleet = AuditFleet(seed="demo", strategy=RiskWeightedStrategy(),
                       engine="event")
    fleet.add_provider("acme", [("bne", city("brisbane"))])
    fleet.register(tenant="alice", provider="acme", datacentre="bne",
                   file_id=b"a-1", data=payload)
    report = fleet.run(hours=24.0)
    print(report.render())     # includes per-lane utilization

See :mod:`repro.fleet.strategies` for the scheduling contract and
:mod:`repro.fleet.report` for the aggregation the run returns.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass

from repro import obs
from repro.cloud.provider import CloudProvider, DataCentre
from repro.cloud.replication import (
    NearestCopyStrategy,
    ReplicaSite,
    ReplicationAuditor,
)
from repro.cloud.sla import SLAPolicy
from repro.cloud.tpa import AuditOutcome, PendingAudit, ThirdPartyAuditor
from repro.cloud.verifier import VerifierDevice
from repro.core.session import OutsourcedFile, outsource_file
from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError
from repro.geo.coords import GeoPoint
from repro.geo.regions import CircularRegion, Region
from repro.netsim.clock import SimClock
from repro.netsim.events import EventScheduler
from repro.obs.tracing import Span
from repro.netsim.lanes import Lane
from repro.netsim.resources import SpindleQueue
from repro.por.parameters import PORParams, TEST_PARAMS
from repro.storage.hdd import HDDSpec, WD_2500JD
from repro.storage.server import StorageServer
from repro.util.validation import check_positive
from repro.util.wallclock import wall_seconds

from repro.fleet.report import (
    AuditEvent,
    FleetReport,
    LaneStats,
    SpindleStats,
    TenantSummary,
    ViolationRecord,
)
from repro.fleet.strategies import (
    MS_PER_HOUR,
    AuditStrategy,
    AuditTask,
    FleetLoadView,
    LaneLoad,
    RoundRobinStrategy,
)

#: The available run loops (see the module docstring).
ENGINES = ("slot", "event")

#: Radius of the circle around a site that a site-centred SLA region
#: draws (see :meth:`AuditFleet.register`).
REGION_RADIUS_KM = 100.0


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; available: {', '.join(ENGINES)}"
        )


@dataclass
class ProviderDeployment:
    """One provider's slice of the fleet: storage, auditor, verifiers."""

    provider: CloudProvider
    tpa: ThirdPartyAuditor
    #: One tamper-proof device per data centre, keyed by site name.
    verifiers: dict[str, VerifierDevice]

    def verifier_for(self, datacentre: str) -> VerifierDevice:
        """The device on the LAN of a contracted site."""
        if datacentre not in self.verifiers:
            raise ConfigurationError(
                f"no verifier at data centre {datacentre!r}"
            )
        return self.verifiers[datacentre]


class AuditFleet:
    """A multi-tenant, multi-provider GeoProof auditing fleet."""

    def __init__(
        self,
        *,
        seed: str = "audit-fleet",
        params: PORParams | None = None,
        strategy: AuditStrategy | None = None,
        slot_minutes: float = 30.0,
        batch_size: int = 4,
        dispatch_overhead_ms: float = 40.0,
        default_k_rounds: int = 10,
        default_interval_hours: float = 6.0,
        engine: str = "slot",
        lane_queue_limit: int = 4,
        setup_workers: int | None = None,
    ) -> None:
        check_positive("slot_minutes", slot_minutes)
        check_positive("dispatch_overhead_ms", dispatch_overhead_ms, strict=False)
        if batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be positive, got {batch_size}"
            )
        if default_k_rounds <= 0:
            raise ConfigurationError(
                f"default_k_rounds must be positive, got {default_k_rounds}"
            )
        check_positive("default_interval_hours", default_interval_hours)
        _check_engine(engine)
        if lane_queue_limit < 1:
            raise ConfigurationError(
                f"lane_queue_limit must be >= 1, got {lane_queue_limit}"
            )
        if setup_workers is not None and (
            not isinstance(setup_workers, int) or setup_workers < 1
        ):
            raise ConfigurationError(
                f"setup_workers must be a positive int, got {setup_workers!r}"
            )
        self.clock = SimClock()
        self.params = params or TEST_PARAMS
        self.strategy = strategy or RoundRobinStrategy()
        self.slot_minutes = slot_minutes
        self.batch_size = batch_size
        self.dispatch_overhead_ms = dispatch_overhead_ms
        self.default_k_rounds = default_k_rounds
        self.default_interval_hours = default_interval_hours
        self.engine = engine
        self.lane_queue_limit = lane_queue_limit
        #: Process-pool width for the outsourcing pipeline's RS encode
        #: (None = in-process; see core.session.outsource_file).
        self.setup_workers = setup_workers
        self._rng = DeterministicRNG(seed)
        self._deployments: dict[str, ProviderDeployment] = {}
        self._tasks: dict[tuple[str, bytes], AuditTask] = {}
        self._records: dict[tuple[str, bytes], OutsourcedFile] = {}
        #: Injected misbehaviour, provider name -> strategy class name
        #: (surfaced in every report so economics runs are self-
        #: describing).
        self._adversaries: dict[str, str] = {}
        #: Replica placements: (provider, file_id) -> {site: ReplicaSite}.
        self._replica_sites: dict[
            tuple[str, bytes], dict[str, ReplicaSite]
        ] = {}

    # -- fleet construction ---------------------------------------------

    def add_provider(
        self,
        name: str,
        datacentres: list[tuple[str, GeoPoint]],
        *,
        disk: HDDSpec = WD_2500JD,
        spindles: int | None = None,
    ) -> CloudProvider:
        """Register a provider with located data centres.

        Builds the provider, one verifier device per site (on the
        shared fleet clock), and a dedicated TPA; returns the provider
        so callers can add more sites or install adversary strategies.

        ``spindles`` backs the provider's N sites with only M storage
        arrays: site i queues its lookups on spindle ``i % M``, so
        with M < N several audit lanes contend for one disk and queue
        waits inflate their observed RTTs.  The default (``None``)
        keeps the classic dedicated spindle per site.  Every server is
        built in the queued shared-resource mode either way, so the
        report's per-spindle accounting is uniform (dedicated spindles
        simply never show wait).
        """
        if name in self._deployments:
            raise ConfigurationError(f"duplicate provider {name!r}")
        if not datacentres:
            raise ConfigurationError(
                f"provider {name!r} needs at least one data centre"
            )
        if spindles is not None and not 1 <= spindles <= len(datacentres):
            raise ConfigurationError(
                f"spindles must be in 1..{len(datacentres)} "
                f"(one per site at most), got {spindles}"
            )
        provider = CloudProvider(name, rng=self._rng.fork(f"provider-{name}"))
        shared: list[StorageServer] = []
        if spindles is not None:
            shared = [
                StorageServer(
                    disk, spindle=SpindleQueue(f"{name}/spindle-{i}")
                )
                for i in range(spindles)
            ]
        verifiers: dict[str, VerifierDevice] = {}
        for i, (site_name, location) in enumerate(datacentres):
            server = (
                shared[i % spindles]
                if spindles is not None
                else StorageServer(
                    disk, spindle=SpindleQueue(f"{name}/{site_name}")
                )
            )
            provider.add_datacentre(
                DataCentre(site_name, location, disk=disk, server=server)
            )
            verifiers[site_name] = VerifierDevice(
                f"verifier-{name}-{site_name}".encode(),
                location,
                clock=self.clock,
                # Chained forks: provider/site names may contain hyphens.
                rng=self._rng.fork(f"verifier-{name}").fork(site_name),
            )
        deployment = ProviderDeployment(
            provider=provider,
            tpa=ThirdPartyAuditor(
                f"tpa-{name}", self._rng.fork(f"tpa-{name}")
            ),
            verifiers=verifiers,
        )
        self._deployments[name] = deployment
        return provider

    def deployment(self, name: str) -> ProviderDeployment:
        """Look up a provider's deployment record."""
        if name not in self._deployments:
            raise ConfigurationError(f"unknown provider {name!r}")
        return self._deployments[name]

    def provider(self, name: str) -> CloudProvider:
        """Look up a registered provider."""
        return self.deployment(name).provider

    def provider_names(self) -> list[str]:
        """All registered providers, in registration order."""
        return list(self._deployments)

    # -- registration ----------------------------------------------------

    def register(
        self,
        *,
        tenant: str,
        provider: str,
        datacentre: str,
        file_id: bytes,
        data: bytes,
        interval_hours: float | None = None,
        epsilon: float = 0.05,
        k_rounds: int | None = None,
        region: Region | None = None,
        disk: HDDSpec | None = None,
        replicas: int = 1,
        replica_datacentres: list[str] | None = None,
    ) -> OutsourcedFile:
        """Outsource a tenant file and enqueue it for recurring audits.

        The SLA region defaults to a circle of :data:`REGION_RADIUS_KM`
        around the contracted data centre and the SLA timing budget to
        the disk class that site was onboarded with (a mismatched disk
        would hand the provider free relay headroom); ``epsilon`` is
        the tenant's declared corruption tolerance (feeds risk-weighted
        scheduling), ``interval_hours`` their contracted audit cadence
        (feeds deadline scheduling).

        ``replicas`` places audited copies at that many of the
        provider's sites in total: the contracted home plus the next
        sites in the provider's onboarding order (or the explicit
        ``replica_datacentres``).  Each replica site gets a
        :class:`~repro.cloud.replication.ReplicaSite` record pairing
        that site's verifier with a site-centred SLA, so an audit may
        run there (work-stealing migration, or a full
        :meth:`replication_auditor` round) under the correct region
        and timing budget.  The audit *cadence* stays per file -- one
        :class:`AuditTask`, schedulable at home or any replica.
        """
        deployment = self.deployment(provider)
        key = (provider, file_id)
        if key in self._tasks:
            raise ConfigurationError(
                f"file {file_id!r} already registered with {provider!r}"
            )
        site = deployment.provider.datacentre(datacentre)
        # Fail fast if the site was added behind the fleet's back (via
        # the returned CloudProvider) and so has no verifier appliance;
        # otherwise the error would only surface mid-run.
        deployment.verifier_for(datacentre)
        replica_names = self._resolve_replica_sites(
            deployment, datacentre, replicas, replica_datacentres
        )
        k = k_rounds if k_rounds is not None else self.default_k_rounds
        # Refuse a round count the encoded file cannot serve here,
        # before anything is uploaded, not mid-run.
        n_segments = self.params.segments_for(len(data))
        if not 0 < k <= n_segments:
            raise ConfigurationError(
                f"k_rounds must be in 1..{n_segments} for a "
                f"{len(data)}-byte file, got {k}"
            )
        sla = self._site_sla(site, k, region=region, disk=disk)
        record = outsource_file(
            file_id=file_id,
            data=data,
            provider=deployment.provider,
            tpa=deployment.tpa,
            params=self.params,
            sla=sla,
            home_datacentre=datacentre,
            # Fork on tenant AND provider -- as two chained forks, not
            # one joined label, so ('a', 'b-p') and ('a-b', 'p') cannot
            # collide: the same file_id outsourced to two providers
            # must not share POR/MAC keys.
            rng=self._rng.fork(f"tenant-{tenant}").fork(
                f"provider-{provider}"
            ),
            workers=self.setup_workers,
        )
        self._place_replicas(deployment, file_id, replica_names, k)
        task = AuditTask(
            tenant=tenant,
            provider_name=provider,
            file_id=file_id,
            datacentre=datacentre,
            interval_hours=(
                interval_hours
                if interval_hours is not None
                else self.default_interval_hours
            ),
            epsilon=epsilon,
            k_rounds=k,
            order=len(self._tasks),
            registered_ms=self.clock.now_ms(),
            replica_datacentres=tuple(replica_names),
        )
        self._tasks[key] = task
        self._records[key] = record
        return record

    def _resolve_replica_sites(
        self,
        deployment: ProviderDeployment,
        home: str,
        replicas: int,
        explicit: list[str] | None,
    ) -> list[str]:
        """The non-home sites a registration places replicas at."""
        names = deployment.provider.datacentre_names()
        if explicit is not None:
            chosen = list(explicit)
        else:
            if not 1 <= replicas <= len(names):
                raise ConfigurationError(
                    f"replicas must be in 1..{len(names)} (the provider's "
                    f"site count), got {replicas}"
                )
            # Home first, then the next onboarded sites, wrapping.
            start = names.index(home)
            chosen = [
                names[(start + offset) % len(names)]
                for offset in range(1, replicas)
            ]
        seen: set[str] = set()
        for name in chosen:
            if name == home or name in seen:
                raise ConfigurationError(
                    f"duplicate replica placement at {name!r}"
                )
            seen.add(name)
            deployment.verifier_for(name)  # fail fast, as for the home
        return chosen

    def _site_sla(
        self,
        site: DataCentre,
        k_rounds: int,
        *,
        region: Region | None = None,
        disk: HDDSpec | None = None,
    ) -> SLAPolicy:
        """The SLA of an audit at ``site``.

        A circle of :data:`REGION_RADIUS_KM` around the site and the
        disk class it was onboarded with, unless ``region`` or ``disk``
        override them; ``k_rounds`` is the minimum round count.
        """
        return SLAPolicy(
            region=region
            or CircularRegion(centre=site.location, radius_km=REGION_RADIUS_KM),
            disk=disk if disk is not None else site.server.disk.spec,
            segment_bytes=self.params.segment_bytes + self.params.tag_bytes,
            min_rounds=k_rounds,
        )

    def _place_replicas(
        self,
        deployment: ProviderDeployment,
        file_id: bytes,
        replica_names: list[str],
        k_rounds: int,
    ) -> None:
        """Copy the file to its replica sites and record their SLAs."""
        if not replica_names:
            return
        provider = deployment.provider
        sites: dict[str, ReplicaSite] = {}
        for name in replica_names:
            destination = provider.datacentre(name)
            # Sites sharing one storage array already hold the bytes;
            # the replica record (verifier + site SLA) is still what
            # makes the copy *auditable* at that site.
            if not destination.exists(file_id):
                provider.replicate_to(file_id, name)
            sites[name] = ReplicaSite(
                name=name,
                verifier=deployment.verifier_for(name),
                sla=self._site_sla(destination, k_rounds),
            )
        self._replica_sites[(provider.name, file_id)] = sites

    def replica_sites(
        self, provider: str, file_id: bytes
    ) -> dict[str, ReplicaSite]:
        """The replica-site records of a registered file (may be empty)."""
        self.record(provider, file_id)  # validates registration
        return dict(self._replica_sites.get((provider, file_id), {}))

    def replication_auditor(
        self, provider: str, file_id: bytes
    ) -> ReplicationAuditor:
        """A replication auditor over a file's home + replica sites.

        Bridges the fleet's replicated placement to
        :meth:`~repro.cloud.replication.ReplicationAuditor.audit_round`:
        the home site and every replica site are registered with their
        fleet verifiers and site-centred SLAs, so one round counts the
        provably distinct copies the provider actually keeps
        (``ReplicaSite.timing_radius_km`` drives the pairwise
        separation filter).
        """
        self.record(provider, file_id)  # validates registration
        deployment = self.deployment(provider)
        task = self._tasks[(provider, file_id)]
        home_dc = deployment.provider.datacentre(task.datacentre)
        auditor = ReplicationAuditor(deployment.tpa)
        auditor.add_site(
            ReplicaSite(
                name=task.datacentre,
                verifier=deployment.verifier_for(task.datacentre),
                sla=self._site_sla(home_dc, task.k_rounds),
            )
        )
        for site in self._replica_sites.get((provider, file_id), {}).values():
            auditor.add_site(site)
        return auditor

    def inject_adversary(
        self,
        provider: str,
        strategy,
        *,
        relocate_to: str | None = None,
    ) -> None:
        """Install adversarial serving on a registered provider.

        The hook the adversarial-economics campaigns
        (:class:`repro.economics.campaign.AdversaryCampaign`) drive:
        ``strategy`` is any :mod:`repro.cloud.adversary` serving
        strategy; ``relocate_to`` first *physically moves* every file
        registered with the provider to that (already onboarded) data
        centre -- the quiet-relocation half of a relay attack, after
        which the installed strategy decides how requests for the
        moved data are answered.  The injection is recorded and
        surfaced as :attr:`FleetReport.adversaries`, so every report
        names the misbehaviour it was produced under.

        Pass ``strategy=None`` to restore honest serving (the record
        of the provider's past injection is kept).
        """
        deployment = self.deployment(provider)
        if relocate_to is not None:
            deployment.provider.datacentre(relocate_to)  # fail fast
            for task in self.tasks():
                if task.provider_name == provider:
                    deployment.provider.relocate(task.file_id, relocate_to)
        deployment.provider.set_strategy(strategy)
        if strategy is not None:
            self._adversaries[provider] = type(strategy).__name__

    def adversaries(self) -> dict[str, str]:
        """Injected adversaries: provider name -> strategy class name."""
        return dict(self._adversaries)

    def record(self, provider: str, file_id: bytes) -> OutsourcedFile:
        """The client-side record of a registered file."""
        key = (provider, file_id)
        if key not in self._records:
            raise ConfigurationError(
                f"file {file_id!r} not registered with {provider!r}"
            )
        return self._records[key]

    def tasks(self) -> list[AuditTask]:
        """The audit queue in registration order."""
        return sorted(self._tasks.values(), key=lambda t: t.order)

    @property
    def n_files(self) -> int:
        """Registered files across all providers."""
        return len(self._tasks)

    @property
    def total_setup_seconds(self) -> float:
        """Wall time spent in the POR setup pipeline across all files.

        The fleet's outsourcing phase is dominated by `setup_file`.  On
        the fleet's small files the block permutation is its largest
        stage, ahead of MAC tagging, AES-CTR and the RS encode;
        benchmarks read this to track the hot path without
        re-instrumenting registration.
        """
        return sum(r.setup_seconds for r in self._records.values())

    # -- auditing --------------------------------------------------------

    def _stage_audit(
        self,
        task: AuditTask,
        clock: SimClock,
        at_site: str | None,
    ) -> PendingAudit:
        """Run one task's timed protocol phase; return the pending run.

        ``clock`` is the clock the timed phase runs on -- the fleet
        clock in the slot engine, the executing lane's clock in the
        event engine (injected down through the TPA and verifier).
        The returned run waits for its verdict until
        :meth:`_execute_batch` passes the batch's runs to the provider
        TPA's :meth:`~repro.cloud.tpa.ThirdPartyAuditor.flush_verdicts`.

        ``at_site`` runs the audit at one of the task's *replica*
        sites instead of its home (a work-stealing migration): that
        site's verifier asks the questions and that site's
        :class:`~repro.cloud.replication.ReplicaSite` SLA supplies the
        region and timing budget.  Either way, when the provider is
        honest and the file replicated, requests are served from the
        copy nearest the auditing verifier
        (:class:`~repro.cloud.replication.NearestCopyStrategy`) -- an
        installed adversary strategy is never overridden.
        """
        deployment = self.deployment(task.provider_name)
        site_name = task.datacentre if at_site is None else at_site
        verifier = deployment.verifier_for(site_name)
        rtt_max_ms = None
        region = None
        if site_name != task.datacentre:
            replica = self._replica_sites.get(task.key, {}).get(site_name)
            if replica is None:
                raise ConfigurationError(
                    f"file {task.file_id!r} has no replica at {site_name!r}"
                )
            rtt_max_ms = replica.sla.rtt_max_ms
            region = replica.sla.region
        provider = deployment.provider
        serve_local = (
            provider.strategy is None and bool(task.replica_datacentres)
        )
        if serve_local:
            provider.set_strategy(NearestCopyStrategy(verifier.location))
        try:
            pending = deployment.tpa.audit_deferred(
                task.file_id,
                verifier,
                provider,
                k=task.k_rounds,
                rtt_max_ms=rtt_max_ms,
                region=region,
                clock=clock,
            )
        finally:
            if serve_local:
                provider.set_strategy(None)
        task.last_audit_ms = clock.now_ms()
        task.audits += 1
        if site_name != task.datacentre:
            task.stolen_audits += 1
        return pending

    def _execute_batch(
        self,
        accounting: _LaneAccounting,
        site: tuple[str, str],
        batch: list[AuditTask],
        clock: SimClock,
        *,
        slot: int,
        start_ms: float,
        horizon_ms: float,
    ) -> list[AuditEvent]:
        """Run one dispatched batch at ``site`` on ``clock``.

        The batch body both engines share: stage every audit, pass the
        batch's pending runs to one verdict flush, turn the outcomes
        into events, charge the lane and record the batch span.  A
        task whose home is not ``site`` is a work-stealing migration
        and runs at the replica there.  ``slot`` labels the events
        (global in the slot engine, lane-local in the event engine).
        """
        batch_start = clock.now_ms()
        # One dispatch pays for the whole batch: the TPA wakes the
        # site's verifier appliance once and streams every request.
        clock.advance(self.dispatch_overhead_ms)
        n_stolen = 0
        spindle_waits: list[float] = []
        pending: list[PendingAudit] = []
        with accounting.service_context(site, clock), \
                accounting.site_window(site) as window:
            for task in batch:
                stolen = task.site != site
                n_stolen += stolen
                wait_mark = accounting.provider_wait_ms(site[0])
                pending.append(self._stage_audit(
                    task, clock, at_site=site[1] if stolen else None
                ))
                spindle_waits.append(
                    accounting.provider_wait_ms(site[0]) - wait_mark
                )
        # One batched verdict flush per batch.  A batch only holds its
        # lane's provider (the slot engine fills it from one site, and
        # work stealing stays inside a provider), so one TPA settles
        # it.  The wall time it takes is the verify-phase cost the lane
        # accounting attributes; simulated time is untouched.
        verify_start = wall_seconds()
        outcomes = self.deployment(site[0]).tpa.flush_verdicts(pending)
        verify_seconds = wall_seconds() - verify_start
        events = [
            self._event_for(
                slot, task, outcome, start_ms, horizon_ms,
                executed_at=site[1],
                spindle_wait_ms=spindle_wait_ms,
            )
            for task, outcome, spindle_wait_ms in zip(
                batch, outcomes, spindle_waits
            )
        ]
        accounting.charge(
            site,
            n_audits=len(batch),
            busy_ms=clock.now_ms() - batch_start,
            disk_ms=window.disk_ms,
            wait_ms=window.wait_ms,
            n_stolen=n_stolen,
            verify_seconds=verify_seconds,
        )
        tracer = obs.tracer()
        if tracer.enabled:
            # Sim-domain span: both endpoints come off the injected
            # clock, so the span stream replays from the seed.
            tracer.record(Span(
                f"fleet.batch:{site[0]}/{site[1]}",
                "sim",
                batch_start,
                clock.now_ms(),
            ))
        return events

    def next_batch(
        self,
        now_ms: float | None = None,
        *,
        strategy: AuditStrategy | None = None,
    ) -> list[AuditTask]:
        """The next slot's batch under the installed (or given) strategy.

        Strategy ranking decides the head; the rest of the batch is
        filled with lower-ranked tasks from the *same data centre* so
        one dispatch serves up to ``batch_size`` audits.
        """
        tasks = self.tasks()
        if not tasks:
            return []
        now = now_ms if now_ms is not None else self.clock.now_ms()
        ranked = (strategy or self.strategy).rank(tasks, now)
        head = ranked[0]
        batch = [head]
        for task in ranked[1:]:
            if len(batch) >= self.batch_size:
                break
            if task.site == head.site:
                batch.append(task)
        return batch

    def run(
        self,
        *,
        hours: float,
        strategy: AuditStrategy | None = None,
        engine: str | None = None,
    ) -> FleetReport:
        """Drain the audit queue for ``hours`` of simulated time.

        ``engine`` selects the run loop for this run only (defaults to
        the fleet's installed engine):

        * ``"slot"`` -- serial baseline: one batch per slot fleet-wide
          on the global clock; audits that overrun a slot delay the
          next one everywhere (capacity is finite and shared).
        * ``"event"`` -- concurrent lanes: one batch per slot *per
          data centre*, each lane advancing its own worker clock, so
          per-site load no longer couples sites together.

        ``strategy`` likewise overrides the installed policy for this
        run only.  Returns the aggregated :class:`FleetReport`.
        """
        check_positive("hours", hours)
        if not self._tasks:
            raise ConfigurationError("cannot run an empty fleet")
        active = strategy if strategy is not None else self.strategy
        selected = engine if engine is not None else self.engine
        _check_engine(selected)
        if selected == "event":
            return self._run_event(hours=hours, active=active)
        return self._run_slot(hours=hours, active=active)

    def _run_slot(
        self, *, hours: float, active: AuditStrategy
    ) -> FleetReport:
        """The legacy serial loop: one batch per slot, one clock."""
        slot_ms = self.slot_minutes * 60_000.0
        start_ms = self.clock.now_ms()
        horizon_ms = start_ms + hours * MS_PER_HOUR
        events: list[AuditEvent] = []
        accounting = _LaneAccounting(self)
        slot = 0
        while True:
            slot_start = start_ms + slot * slot_ms
            # Stop at the horizon even when audits overran their slots
            # (the clock, not the slot counter, is the source of truth).
            if slot_start >= horizon_ms or self.clock.now_ms() >= horizon_ms:
                break
            if slot_start > self.clock.now_ms():
                self.clock.advance_to(slot_start)
            batch = self.next_batch(self.clock.now_ms(), strategy=active)
            events.extend(self._execute_batch(
                accounting, batch[0].site, batch, self.clock,
                slot=slot, start_ms=start_ms, horizon_ms=horizon_ms,
            ))
            slot += 1
        return self._build_report(
            strategy_name=active.name,
            simulated_hours=hours,
            events=events,
            engine="slot",
            lanes=accounting.stats(span_ms=hours * MS_PER_HOUR),
            spindles=accounting.spindle_stats(span_ms=hours * MS_PER_HOUR),
        )

    def _run_event(
        self, *, hours: float, active: AuditStrategy
    ) -> FleetReport:
        """The concurrent engine: per-datacentre lanes on the scheduler.

        The global :class:`EventScheduler` only carries *control*
        events -- per-lane slot ticks and queued-dispatch wakeups.
        The audit work itself runs on each lane's own
        :class:`~repro.netsim.lanes.LaneClock`, which may run ahead of
        the global clock; completed audits are merged back into one
        fleet-wide timeline by timestamp (dispatch order breaking
        ties, which the scheduler keeps FIFO).
        """
        slot_ms = self.slot_minutes * 60_000.0
        start_ms = self.clock.now_ms()
        horizon_ms = start_ms + hours * MS_PER_HOUR
        scheduler = EventScheduler(self.clock)
        accounting = _LaneAccounting(self)
        sites = accounting.sites
        lanes = {
            site: Lane(
                f"{site[0]}/{site[1]}",
                scheduler,
                queue_limit=self.lane_queue_limit,
                start_ms=start_ms,
            )
            for site in sites
        }
        recorded: list[AuditEvent] = []

        def make_dispatch(site: tuple[str, str]):
            def dispatch(lane_clock) -> None:
                # Batches may *finish* past the horizon (flagged), but
                # never start at/past it -- the slot engine's rule.
                if lane_clock.now_ms() >= horizon_ms:
                    return
                batch = active.rank_lane(
                    accounting.tasks_at(site),
                    lane_clock.now_ms(),
                    accounting.lane_load(site, lanes),
                    accounting.fleet_view(lanes),
                )[: self.batch_size]
                if not batch:
                    return
                recorded.extend(self._execute_batch(
                    accounting, site, batch, lane_clock,
                    slot=accounting.n_batches_at(site),
                    start_ms=start_ms, horizon_ms=horizon_ms,
                ))
            return dispatch

        def make_tick(site: tuple[str, str]):
            lane = lanes[site]
            dispatch = make_dispatch(site)
            label = f"audit:{site[0]}/{site[1]}"

            def tick() -> None:
                if scheduler.clock.now_ms() >= horizon_ms:
                    return
                lane.submit(dispatch, label=label)

            return tick

        # One periodic tick chain per lane, created in first-
        # registration order so same-timestamp ticks fire in a
        # deterministic FIFO order.
        for site in sites:
            scheduler.schedule_periodic(
                slot_ms,
                make_tick(site),
                first_delay_ms=0.0,
                label=f"tick:{site[0]}/{site[1]}",
            )
        scheduler.run_until(horizon_ms)
        # Fleet-wide time resumes after the last straggler lane: a
        # subsequent run() must not start before every site is free.
        tail = max(
            (lane.frontier_ms for lane in lanes.values()),
            default=self.clock.now_ms(),
        )
        if tail > self.clock.now_ms():
            self.clock.advance_to(tail)
        # Merge the per-lane streams into one fleet timeline: order by
        # completion time, dispatch order breaking ties.
        indexed = sorted(
            enumerate(recorded), key=lambda pair: (pair[1].at_ms, pair[0])
        )
        return self._build_report(
            strategy_name=active.name,
            simulated_hours=hours,
            events=[event for _, event in indexed],
            engine="event",
            lanes=accounting.stats(
                span_ms=hours * MS_PER_HOUR, lanes=lanes
            ),
            spindles=accounting.spindle_stats(span_ms=hours * MS_PER_HOUR),
        )

    # -- report assembly -------------------------------------------------

    def _event_for(
        self,
        slot: int,
        task: AuditTask,
        outcome: AuditOutcome,
        start_ms: float,
        horizon_ms: float,
        *,
        executed_at: str,
        spindle_wait_ms: float = 0.0,
    ) -> AuditEvent:
        """Record one audit at its (possibly lane-local) finish time.

        ``slot`` is the dispatching slot index -- global in the slot
        engine, lane-local in the event engine (identical for a
        single-site fleet).  ``executed_at`` is the lane that ran the
        audit (differs from the task's home for stolen audits) and
        ``spindle_wait_ms`` the shared-spindle queue wait its lookups
        absorbed.  Audits whose batch legitimately started inside the
        horizon but finished past it are flagged, not dropped, so both
        engines treat overruns identically.

        The timestamp is the outcome's own protocol finish time:
        verification consumes no simulated time, so this is exactly
        the clock reading at which the pre-batching code recorded the
        event -- which is what lets the engines defer verdicts to a
        per-batch flush without moving a single event.
        """
        verdict = outcome.verdict
        finished_ms = outcome.finished_ms
        return AuditEvent(
            slot=slot,
            tenant=task.tenant,
            provider=task.provider_name,
            file_id=task.file_id,
            datacentre=task.datacentre,
            at_ms=finished_ms - start_ms,
            accepted=verdict.accepted,
            max_rtt_ms=verdict.max_rtt_ms,
            rtt_max_ms=verdict.rtt_max_ms,
            failure_reasons=tuple(verdict.failure_reasons),
            overran_horizon=finished_ms > horizon_ms,
            executed_at=executed_at,
            spindle_wait_ms=spindle_wait_ms,
        )

    def _build_report(
        self,
        *,
        strategy_name: str,
        simulated_hours: float,
        events: list[AuditEvent],
        engine: str,
        lanes: tuple[LaneStats, ...],
        spindles: tuple[SpindleStats, ...] = (),
    ) -> FleetReport:
        # First failing audit per (provider, file_id), in fleet-
        # timeline order (events arrive pre-merged by timestamp).
        detected: dict[tuple[str, bytes], ViolationRecord] = {}
        for event in events:
            key = (event.provider, event.file_id)
            if not event.accepted and key not in detected:
                detected[key] = ViolationRecord(
                    tenant=event.tenant,
                    provider=event.provider,
                    file_id=event.file_id,
                    detected_at_hours=event.at_hours,
                    failure_reasons=event.failure_reasons,
                )
        tenants: dict[str, dict[str, int]] = {}
        tenant_files: dict[str, set[tuple[str, bytes]]] = {}
        for task in self.tasks():
            tenants.setdefault(task.tenant, {"audits": 0, "accepted": 0})
            # Count by the fleet identity (provider, file_id): one
            # tenant may register the same file id with two providers.
            tenant_files.setdefault(task.tenant, set()).add(task.key)
        breakdown: dict[str, int] = {"accepted": 0}
        for event in events:
            counts = tenants[event.tenant]
            counts["audits"] += 1
            if event.accepted:
                counts["accepted"] += 1
                breakdown["accepted"] += 1
            for reason in event.failure_reasons:
                breakdown[reason] = breakdown.get(reason, 0) + 1
        # Per-tenant detection latency: the earliest violation caught
        # on any of the tenant's files (None = nothing detected).  The
        # economics engine prices each tenant's defence off this.
        tenant_detection: dict[str, float] = {}
        for violation in detected.values():
            previous = tenant_detection.get(violation.tenant)
            if previous is None or violation.detected_at_hours < previous:
                tenant_detection[violation.tenant] = (
                    violation.detected_at_hours
                )
        summaries = tuple(
            TenantSummary(
                tenant=tenant,
                n_files=len(tenant_files[tenant]),
                n_audits=counts["audits"],
                n_accepted=counts["accepted"],
                first_detection_hours=tenant_detection.get(tenant),
            )
            for tenant, counts in sorted(tenants.items())
        )
        violations = tuple(
            sorted(
                detected.values(),
                key=lambda v: (v.detected_at_hours, v.provider, v.file_id),
            )
        )
        n_audits = len(events)
        n_batches = sum(lane.n_batches for lane in lanes)
        return FleetReport(
            strategy=strategy_name,
            simulated_hours=simulated_hours,
            n_providers=len(self._deployments),
            n_files=self.n_files,
            n_batches=n_batches,
            events=tuple(events),
            tenants=summaries,
            violations=violations,
            verdict_breakdown=tuple(sorted(breakdown.items())),
            overhead_saved_ms=(
                max(0, n_audits - n_batches) * self.dispatch_overhead_ms
            ),
            engine=engine,
            lanes=lanes,
            spindles=spindles,
            adversaries=tuple(sorted(self._adversaries.items())),
        )


class _LaneAccounting:
    """Per-site dispatch accounting shared by both run engines.

    Sites are enumerated in first-registration order -- the canonical
    lane order for reports and for scheduling ticks, so two runs of
    the same fleet agree on every tie-break.
    """

    def __init__(self, fleet: AuditFleet) -> None:
        self._fleet = fleet
        self.sites: list[tuple[str, str]] = []
        # Registration is closed during a run, so the per-site queue
        # index is built once here instead of re-filtering the whole
        # fleet queue on every lane dispatch (tasks stay shared and
        # mutable -- only the grouping is frozen).
        self._tasks_by_site: dict[tuple[str, str], list[AuditTask]] = {}
        for task in fleet.tasks():
            if task.site not in self._tasks_by_site:
                self.sites.append(task.site)
                self._tasks_by_site[task.site] = []
            self._tasks_by_site[task.site].append(task)
        self._acc: dict[tuple[str, str], dict[str, float]] = {
            site: {
                "batches": 0, "audits": 0, "disk_ms": 0.0, "busy_ms": 0.0,
                "wait_ms": 0.0, "stolen": 0, "verify_s": 0.0,
            }
            for site in self.sites
        }
        # Per-lane obs series, bound once per run (no-op families when
        # the plane is off, so the charge() hot path stays method calls
        # on shared null objects).
        registry = obs.metrics()
        obs_batches = registry.counter(
            "repro_fleet_batches_total",
            "Batches dispatched per fleet lane",
            ("provider", "site"),
        )
        obs_audits = registry.counter(
            "repro_fleet_audits_total",
            "Audits executed per fleet lane",
            ("provider", "site"),
        )
        obs_stolen = registry.counter(
            "repro_fleet_stolen_total",
            "Audits stolen into this lane from saturated siblings",
            ("provider", "site"),
        )
        obs_verify = registry.counter(
            "repro_fleet_verify_seconds_total",
            "Wall-clock batch-verify cost per fleet lane",
            ("provider", "site"),
        )
        self._obs_shed = registry.counter(
            "repro_fleet_shed_total",
            "Lane slot ticks dropped by a full queue",
            ("provider", "site"),
        )
        self._obs_by_site = {
            site: (
                obs_batches.labels(*site),
                obs_audits.labels(*site),
                obs_stolen.labels(*site),
                obs_verify.labels(*site),
            )
            for site in self.sites
        }
        # Spindle census: every distinct SpindleQueue across the
        # registered providers, in provider/site onboarding order,
        # with run-start snapshots so report rows are per-run deltas
        # (the queues themselves accumulate across runs).
        self._spindles: list[tuple[str, SpindleQueue, tuple[str, ...]]] = []
        self._spindle_marks: dict[int, tuple[float, float, int, int]] = {}
        for provider_name in fleet.provider_names():
            provider = fleet.deployment(provider_name).provider
            by_id: dict[int, tuple[SpindleQueue, list[str]]] = {}
            for dc_name in provider.datacentre_names():
                spindle = provider.datacentre(dc_name).server.spindle
                if spindle is None:
                    continue
                if id(spindle) not in by_id:
                    by_id[id(spindle)] = (spindle, [])
                by_id[id(spindle)][1].append(dc_name)
            for spindle, dc_names in by_id.values():
                self._spindles.append(
                    (provider_name, spindle, tuple(dc_names))
                )
                self._spindle_marks[id(spindle)] = (
                    spindle.busy_ms,
                    spindle.wait_ms,
                    spindle.n_requests,
                    spindle.n_waited,
                )
                # A max cannot be recovered from before/after totals
                # the way the sums above are; start a fresh window so
                # peak_wait_ms is this run's peak, not a predecessor's.
                spindle.reset_peak()

    def tasks_at(self, site: tuple[str, str]) -> list[AuditTask]:
        """One site's slice of the audit queue, in registration order."""
        return self._tasks_by_site[site]

    def site_window(self, site: tuple[str, str]):
        """A spindle meter on the site's *contracted* storage server.

        A relaying provider serves from elsewhere, so a relayed batch
        legitimately shows zero contracted-spindle time here.
        """
        provider, datacentre = site
        server = (
            self._fleet.deployment(provider)
            .provider.datacentre(datacentre)
            .server
        )
        return server.serve_window()

    @contextmanager
    def service_context(self, site: tuple[str, str], clock: SimClock):
        """Bind a batch's requester clock to its provider's servers.

        Bound on *every* server of the provider (not just the site's)
        because the serving policy decides which copy answers: an
        honest replicated provider serves nearest-copy, a relayer
        serves from its remote site -- wherever the lookups land, they
        must queue at that spindle with this batch's arrival times.
        """
        provider = self._fleet.deployment(site[0]).provider
        with ExitStack() as stack:
            seen: set[int] = set()
            for dc_name in provider.datacentre_names():
                server = provider.datacentre(dc_name).server
                if id(server) in seen:
                    continue
                seen.add(id(server))
                stack.enter_context(server.timed_with(clock))
            yield

    def provider_wait_ms(self, provider_name: str) -> float:
        """Total queue wait accumulated on one provider's spindles.

        Snapshot this before and after an audit: the delta is the
        contention that audit's lookups absorbed, whichever spindle
        served them.
        """
        return sum(
            spindle.wait_ms
            for name, spindle, _ in self._spindles
            if name == provider_name
        )

    def lane_load(
        self,
        site: tuple[str, str],
        lanes: dict[tuple[str, str], Lane],
    ) -> LaneLoad:
        """One lane's load snapshot for strategy ranking."""
        lane = lanes[site]
        return LaneLoad(
            site=site,
            queue_depth=lane.queued,
            frontier_ms=lane.frontier_ms,
            busy_ms=lane.clock.busy_ms,
            n_dispatched=lane.n_dispatched,
        )

    def fleet_view(
        self, lanes: dict[tuple[str, str], Lane]
    ) -> FleetLoadView:
        """The cross-lane snapshot handed to lane-aware strategies."""
        return FleetLoadView(
            loads=[self.lane_load(site, lanes) for site in self.sites],
            tasks_by_site=self._tasks_by_site,
        )

    def n_batches_at(self, site: tuple[str, str]) -> int:
        """Batches dispatched at a site so far (the lane slot index)."""
        return int(self._acc[site]["batches"])

    def charge(
        self,
        site: tuple[str, str],
        *,
        n_audits: int,
        busy_ms: float,
        disk_ms: float,
        wait_ms: float = 0.0,
        n_stolen: int = 0,
        verify_seconds: float = 0.0,
    ) -> None:
        """Account one dispatched batch against its lane."""
        acc = self._acc[site]
        acc["batches"] += 1
        acc["audits"] += n_audits
        acc["busy_ms"] += busy_ms
        acc["disk_ms"] += disk_ms
        acc["wait_ms"] += wait_ms
        acc["stolen"] += n_stolen
        acc["verify_s"] += verify_seconds
        obs_batches, obs_audits, obs_stolen, obs_verify = (
            self._obs_by_site[site]
        )
        obs_batches.inc()
        obs_audits.inc(n_audits)
        if n_stolen:
            obs_stolen.inc(n_stolen)
        if verify_seconds > 0.0:
            obs_verify.inc(verify_seconds)

    def stats(
        self,
        *,
        span_ms: float,
        lanes: dict[tuple[str, str], Lane] | None = None,
    ) -> tuple[LaneStats, ...]:
        """Freeze the accounting into report rows.

        Batch counts, busy time (the accumulated batch spans) and
        verify cost come from the charges in both engines.  With
        ``lanes`` (event engine) wait classification and queue stats
        come from each :class:`Lane`; without (slot engine) the wait
        is the site windows' and queue depth is zero by construction.
        """
        rows = []
        for site in self.sites:
            acc = self._acc[site]
            lane = lanes.get(site) if lanes is not None else None
            if lane is not None and lane.dropped:
                # Shed work only becomes known at freeze time: the
                # Lane counts dropped ticks itself.
                self._obs_shed.labels(*site).inc(lane.dropped)
            wait_ms = (
                lane.clock.waiting_ms if lane is not None else acc["wait_ms"]
            )
            rows.append(
                LaneStats(
                    provider=site[0],
                    datacentre=site[1],
                    n_batches=int(acc["batches"]),
                    n_audits=int(acc["audits"]),
                    busy_ms=acc["busy_ms"],
                    disk_busy_ms=acc["disk_ms"],
                    utilization=(
                        acc["busy_ms"] / span_ms if span_ms > 0 else 0.0
                    ),
                    peak_queue_depth=(
                        lane.peak_queue_depth if lane is not None else 0
                    ),
                    dropped_slots=lane.dropped if lane is not None else 0,
                    spindle_wait_ms=wait_ms,
                    stolen_audits=int(acc["stolen"]),
                    verify_seconds=acc["verify_s"],
                )
            )
        return tuple(rows)

    def spindle_stats(self, *, span_ms: float) -> tuple[SpindleStats, ...]:
        """Per-spindle contention rows (this run's deltas)."""
        rows = []
        for provider_name, spindle, dc_names in self._spindles:
            busy0, wait0, requests0, waited0 = self._spindle_marks[
                id(spindle)
            ]
            busy = spindle.busy_ms - busy0
            rows.append(
                SpindleStats(
                    provider=provider_name,
                    spindle=spindle.name,
                    sites=dc_names,
                    n_requests=spindle.n_requests - requests0,
                    n_waited=spindle.n_waited - waited0,
                    busy_ms=busy,
                    wait_ms=spindle.wait_ms - wait0,
                    peak_wait_ms=spindle.peak_wait_ms,
                    utilization=busy / span_ms if span_ms > 0 else 0.0,
                )
            )
        return tuple(rows)
