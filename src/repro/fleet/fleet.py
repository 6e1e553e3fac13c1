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
batch pays :data:`DISPATCH_OVERHEAD_MS` once where unbatched auditing
would pay it per file.

Two engines run that batch body (:meth:`AuditFleet._execute_batch`:
stage every audit, queue its run at the site, charge the lane, record
the span) and differ only in who decides when and where a batch runs:

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

Verdicts settle per site, not per batch.  A site's staged runs wait,
unsigned, until :data:`RUNS_PER_SEAL` of them are queued; then one
:meth:`~repro.cloud.tpa.ThirdPartyAuditor.flush_verdicts` call has the
site's verifier seal them as one signed tree and checks them together.
At the end of a run both engines settle every site still holding runs.
No strategy reads a verdict and an event's timestamp is its run's
finish time, known at staging, so the grouping moves no report byte.

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
  sites of its provider, recorded once as the task's
  ``replica_datacentres``, which is what lets lane-aware strategies
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
from repro.cloud.replication import NearestCopyStrategy
from repro.cloud.sla import SLAPolicy
from repro.cloud.tpa import AuditOutcome, PendingAudit, ThirdPartyAuditor
from repro.cloud.verifier import VerifierDevice
from repro.core.session import OutsourcedFile, outsource_file
from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError, StorageError
from repro.geo.coords import GeoPoint
from repro.geo.regions import CircularRegion
from repro.netsim.clock import SimClock
from repro.netsim.events import EventScheduler
from repro.netsim.lanes import Lane
from repro.netsim.resources import SpindleQueue
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span
from repro.por.parameters import TEST_PARAMS
from repro.storage.hdd import WD_2500JD
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

#: Simulated cost of one batch dispatch: the TPA waking a site's
#: verifier appliance before it streams the batch's requests.
DISPATCH_OVERHEAD_MS = 40.0

#: Unsealed runs at which a site settles: one seal, one signed root and
#: one exact Schnorr check per this many runs.  A site checks after each
#: batch, so it holds at most ``RUNS_PER_SEAL + batch_size - 1`` runs.
#: The same size as the audit daemon's default ``flush_batch``.
RUNS_PER_SEAL = 64


@dataclass(frozen=True, slots=True)
class _Unserved:
    """A staged audit the provider could not serve: no round completed.

    ``finished_ms`` is the clock reading when staging failed and
    ``rtt_max_ms`` the timing budget the audit ran against.
    """

    finished_ms: float
    rtt_max_ms: float


#: The per-lane counters :class:`_LaneAccounting` keeps: (name, help).
#: :meth:`_LaneAccounting.charge` adds to the first six per batch and
#: :meth:`_LaneAccounting.settle` to the last per settle.
_LANE_COUNTERS = (
    ("repro_fleet_batches_total", "Batches dispatched per fleet lane"),
    ("repro_fleet_audits_total", "Audits executed per fleet lane"),
    ("repro_fleet_busy_ms_total", "Simulated ms each fleet lane spent on batches"),
    ("repro_fleet_disk_busy_ms_total", "Contracted-site disk ms per fleet lane"),
    ("repro_fleet_site_wait_ms_total", "Contracted-site spindle-wait ms per lane"),
    ("repro_fleet_stolen_total",
     "Audits stolen into this lane from saturated siblings"),
    ("repro_fleet_verify_seconds_total", "Wall-clock verdict-settle cost per fleet lane"),
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
        strategy: AuditStrategy | None = None,
        slot_minutes: float = 30.0,
        batch_size: int = 4,
        default_k_rounds: int = 10,
        default_interval_hours: float = 6.0,
        engine: str = "slot",
        lane_queue_limit: int = 4,
    ) -> None:
        check_positive("slot_minutes", slot_minutes)
        if batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be positive, got {batch_size}"
            )
        if default_k_rounds <= 0:
            raise ConfigurationError(
                f"default_k_rounds must be positive, got {default_k_rounds}"
            )
        check_positive("default_interval_hours", default_interval_hours)
        if engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {engine!r}; available: {', '.join(ENGINES)}"
            )
        if lane_queue_limit < 1:
            raise ConfigurationError(
                f"lane_queue_limit must be >= 1, got {lane_queue_limit}"
            )
        self.clock = SimClock()
        self.params = TEST_PARAMS
        self.strategy = strategy or RoundRobinStrategy()
        self.slot_minutes = slot_minutes
        self.batch_size = batch_size
        self.default_k_rounds = default_k_rounds
        self.default_interval_hours = default_interval_hours
        self.engine = engine
        self.lane_queue_limit = lane_queue_limit
        self._rng = DeterministicRNG(seed)
        self._deployments: dict[str, ProviderDeployment] = {}
        self._tasks: dict[tuple[str, bytes], AuditTask] = {}
        self._records: dict[tuple[str, bytes], OutsourcedFile] = {}
        #: Injected misbehaviour, provider name -> strategy class name
        #: (surfaced in every report so economics runs are self-
        #: describing).
        self._adversaries: dict[str, str] = {}

    # -- fleet construction ---------------------------------------------

    def add_provider(
        self,
        name: str,
        datacentres: list[tuple[str, GeoPoint]],
        *,
        spindles: int | None = None,
    ) -> CloudProvider:
        """Register a provider with located data centres.

        Builds the provider, one verifier device per site (on the
        shared fleet clock), and a dedicated TPA; returns the provider
        so callers can add more sites or install adversary strategies.
        Every site's storage is a :data:`~repro.storage.hdd.WD_2500JD`
        array.

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
        provider = CloudProvider(name)
        shared: list[StorageServer] = []
        if spindles is not None:
            shared = [
                StorageServer(
                    WD_2500JD, spindle=SpindleQueue(f"{name}/spindle-{i}")
                )
                for i in range(spindles)
            ]
        verifiers: dict[str, VerifierDevice] = {}
        for i, (site_name, location) in enumerate(datacentres):
            server = (
                shared[i % spindles]
                if spindles is not None
                else StorageServer(
                    WD_2500JD, spindle=SpindleQueue(f"{name}/{site_name}")
                )
            )
            provider.add_datacentre(DataCentre(site_name, location, server=server))
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
        replicas: int = 1,
    ) -> OutsourcedFile:
        """Outsource a tenant file and enqueue it for recurring audits.

        The SLA region is a circle of :data:`REGION_RADIUS_KM` around
        the contracted data centre and the SLA timing budget follows
        the disk class that site was onboarded with (a mismatched disk
        would hand the provider free relay headroom); ``epsilon`` is
        the tenant's declared corruption tolerance (feeds risk-weighted
        scheduling), ``interval_hours`` their contracted audit cadence
        (feeds deadline scheduling).

        Every audit of the file runs the fleet's ``default_k_rounds``.

        ``replicas`` places audited copies at that many of the
        provider's sites in total: the contracted home plus the next
        sites in the provider's onboarding order.  An audit may run at any replica
        site (work-stealing migration) under that site's verifier
        and a site-centred SLA.  The audit *cadence* stays per file -- one
        :class:`AuditTask`, schedulable at home or any replica.

        The task, and so its cadence and tolerance checks, is built
        before the file is uploaded: a refused registration leaves
        nothing behind.
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
        replica_names = self._resolve_replica_sites(deployment, datacentre, replicas)
        k = self.default_k_rounds
        # Refuse a round count the encoded file cannot serve here,
        # before anything is uploaded, not mid-run.
        n_segments = self.params.segments_for(len(data))
        if not 0 < k <= n_segments:
            raise ConfigurationError(
                f"k_rounds must be in 1..{n_segments} for a "
                f"{len(data)}-byte file, got {k}"
            )
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
        sla = self._site_sla(site, k)
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
        )
        self._place_replicas(deployment.provider, file_id, replica_names)
        self._tasks[key] = task
        self._records[key] = record
        return record

    def _resolve_replica_sites(
        self,
        deployment: ProviderDeployment,
        home: str,
        replicas: int,
    ) -> list[str]:
        """The non-home sites a registration places replicas at."""
        names = deployment.provider.datacentre_names()
        if not 1 <= replicas <= len(names):
            raise ConfigurationError(
                f"replicas must be in 1..{len(names)} (the provider's "
                f"site count), got {replicas}"
            )
        # Home first, then the next onboarded sites, wrapping.
        start = names.index(home)
        chosen = [
            names[(start + offset) % len(names)] for offset in range(1, replicas)
        ]
        for name in chosen:
            deployment.verifier_for(name)  # fail fast, as for the home
        return chosen

    def _site_sla(self, site: DataCentre, k_rounds: int) -> SLAPolicy:
        """The SLA of an audit at ``site``.

        A circle of :data:`REGION_RADIUS_KM` around the site and the
        disk class it was onboarded with; ``k_rounds`` is the minimum
        round count.
        """
        return SLAPolicy(
            region=CircularRegion(
                centre=site.location, radius_km=REGION_RADIUS_KM
            ),
            disk=site.server.disk.spec,
            segment_bytes=self.params.segment_bytes + self.params.tag_bytes,
            min_rounds=k_rounds,
        )

    def _place_replicas(
        self,
        provider: CloudProvider,
        file_id: bytes,
        replica_names: list[str],
    ) -> None:
        """Copy the file to its replica sites."""
        for name in replica_names:
            # Sites sharing one storage array already hold the bytes.
            if not provider.datacentre(name).exists(file_id):
                provider.replicate_to(file_id, name)

    @contextmanager
    def _service_context(self, provider: str, clock: SimClock):
        """Bind ``clock`` as the requester clock of a provider's servers.

        Bound on *every* server of the provider (not just one site's)
        because the serving policy decides which copy answers: an
        honest replicated provider serves nearest-copy, a relayer
        serves from its remote site -- wherever the lookups land, they
        must queue at that spindle with these arrival times.
        """
        cloud = self.deployment(provider).provider
        with ExitStack() as stack:
            seen: set[int] = set()
            for dc_name in cloud.datacentre_names():
                server = cloud.datacentre(dc_name).server
                if id(server) in seen:
                    continue
                seen.add(id(server))
                stack.enter_context(server.timed_with(clock))
            yield

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
    ) -> PendingAudit | _Unserved:
        """Run one task's timed protocol phase; return the pending run.

        ``clock`` is the clock the timed phase runs on -- the fleet
        clock in the slot engine, the executing lane's clock in the
        event engine (injected down through the TPA and verifier).
        The returned run waits, unsigned, in its site's queue until
        :meth:`_LaneAccounting.settle` passes the queued runs to the
        provider TPA's
        :meth:`~repro.cloud.tpa.ThirdPartyAuditor.flush_verdicts`,
        which has the site's verifier seal them together.

        ``at_site`` runs the audit at one of the task's *replica*
        sites instead of its home (a work-stealing migration): that
        site's verifier asks the questions and a site-centred SLA
        (:meth:`_site_sla`) supplies the region and timing budget.
        Either way, when the provider is honest and the file
        replicated, requests are served from the copy nearest the
        auditing verifier
        (:class:`~repro.cloud.replication.NearestCopyStrategy`) -- an
        installed adversary strategy is never overridden.

        A provider that cannot serve the audit at all (a
        :class:`~repro.errors.StorageError`: every copy of a segment
        deleted, say) completes no round, so there is no run to seal:
        the audit comes back as :class:`_Unserved`, rejected at the
        clock reading where it failed.
        """
        deployment = self.deployment(task.provider_name)
        site_name = task.datacentre if at_site is None else at_site
        verifier = deployment.verifier_for(site_name)
        rtt_max_ms = None
        region = None
        if site_name != task.datacentre:
            if site_name not in task.replica_datacentres:
                raise ConfigurationError(
                    f"file {task.file_id!r} has no replica at {site_name!r}"
                )
            sla = self._site_sla(
                deployment.provider.datacentre(site_name), task.k_rounds
            )
            rtt_max_ms = sla.rtt_max_ms
            region = sla.region
        provider = deployment.provider
        serve_local = (
            provider.strategy is None and bool(task.replica_datacentres)
        )
        if serve_local:
            provider.set_strategy(NearestCopyStrategy(verifier.location))
        try:
            staged: PendingAudit | _Unserved = deployment.tpa.audit_deferred(
                task.file_id,
                verifier,
                provider,
                k=task.k_rounds,
                rtt_max_ms=rtt_max_ms,
                region=region,
                clock=clock,
            )
        except StorageError:
            if rtt_max_ms is None:
                rtt_max_ms = deployment.tpa.record(task.file_id).sla.rtt_max_ms
            staged = _Unserved(clock.now_ms(), rtt_max_ms)
        finally:
            if serve_local:
                provider.set_strategy(None)
        task.last_audit_ms = clock.now_ms()
        return staged

    def _execute_batch(
        self,
        accounting: _LaneAccounting,
        site: tuple[str, str],
        batch: list[AuditTask],
        clock: SimClock,
        *,
        slot: int,
    ) -> None:
        """Run one dispatched batch at ``site`` on ``clock``.

        The batch body both engines share: stage every audit, record
        each in ``accounting`` (which queues the served runs at the
        site), settle the site once :data:`RUNS_PER_SEAL` runs are
        queued, charge the lane and record the batch span.  A task
        whose home is not ``site`` is a work-stealing migration and
        runs at the replica there, so every queued run was measured by
        the site's verifier.  ``slot`` labels the events (global in the
        slot engine, lane-local in the event engine).
        """
        batch_start = clock.now_ms()
        # One dispatch pays for the whole batch: the TPA wakes the
        # site's verifier appliance once and streams every request.
        clock.advance(DISPATCH_OVERHEAD_MS)
        n_stolen = 0
        # The batch's disk time and queue wait are what the contracted
        # site's spindle sums gain while the batch stages.
        spindle = accounting.site_spindle(site)
        disk_mark, site_wait_mark = spindle.busy_ms, spindle.wait_ms
        with self._service_context(site[0], clock):
            for task in batch:
                stolen = task.site != site
                n_stolen += stolen
                wait_mark = accounting.provider_wait_ms(site[0])
                staged = self._stage_audit(
                    task, clock, at_site=site[1] if stolen else None
                )
                accounting.record(
                    site, slot, task, staged,
                    spindle_wait_ms=(
                        accounting.provider_wait_ms(site[0]) - wait_mark
                    ),
                )
        if accounting.n_unsettled(site) >= RUNS_PER_SEAL:
            accounting.settle(site)
        accounting.charge(
            site,
            n_audits=len(batch),
            busy_ms=clock.now_ms() - batch_start,
            disk_ms=spindle.busy_ms - disk_mark,
            wait_ms=spindle.wait_ms - site_wait_mark,
            n_stolen=n_stolen,
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

    def next_batch(self, now_ms: float | None = None) -> list[AuditTask]:
        """The next slot's batch under the installed strategy.

        Strategy ranking decides the head; the rest of the batch is
        filled with lower-ranked tasks from the *same data centre* so
        one dispatch serves up to ``batch_size`` audits.
        """
        tasks = self.tasks()
        if not tasks:
            return []
        now = now_ms if now_ms is not None else self.clock.now_ms()
        ranked = self.strategy.rank(tasks, now)
        head = ranked[0]
        batch = [head]
        for task in ranked[1:]:
            if len(batch) >= self.batch_size:
                break
            if task.site == head.site:
                batch.append(task)
        return batch

    def run(self, *, hours: float) -> FleetReport:
        """Drain the audit queue for ``hours`` of simulated time.

        The fleet's ``engine`` selects the run loop:

        * ``"slot"`` -- serial baseline: one batch per slot fleet-wide
          on the global clock; audits that overrun a slot delay the
          next one everywhere (capacity is finite and shared).
        * ``"event"`` -- concurrent lanes: one batch per slot *per
          data centre*, each lane advancing its own worker clock, so
          per-site load no longer couples sites together.

        Batches are ranked by the fleet's ``strategy``.  Returns the
        aggregated :class:`FleetReport`.
        """
        check_positive("hours", hours)
        if not self._tasks:
            raise ConfigurationError("cannot run an empty fleet")
        if self.engine == "event":
            return self._run_event(hours=hours)
        return self._run_slot(hours=hours)

    def _run_slot(self, *, hours: float) -> FleetReport:
        """The legacy serial loop: one batch per slot, one clock."""
        slot_ms = self.slot_minutes * 60_000.0
        start_ms = self.clock.now_ms()
        horizon_ms = start_ms + hours * MS_PER_HOUR
        accounting = _LaneAccounting(
            self, start_ms=start_ms, horizon_ms=horizon_ms
        )
        slot = 0
        while True:
            slot_start = start_ms + slot * slot_ms
            # Stop at the horizon even when audits overran their slots
            # (the clock, not the slot counter, is the source of truth).
            if slot_start >= horizon_ms or self.clock.now_ms() >= horizon_ms:
                break
            if slot_start > self.clock.now_ms():
                self.clock.advance_to(slot_start)
            batch = self.next_batch(self.clock.now_ms())
            self._execute_batch(
                accounting, batch[0].site, batch, self.clock, slot=slot
            )
            slot += 1
        events = accounting.settled_events()
        return self._build_report(
            strategy_name=self.strategy.name,
            simulated_hours=hours,
            events=events,
            engine="slot",
            lanes=accounting.stats(span_ms=hours * MS_PER_HOUR),
            spindles=accounting.spindle_stats(span_ms=hours * MS_PER_HOUR),
        )

    def _run_event(self, *, hours: float) -> FleetReport:
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
        accounting = _LaneAccounting(
            self, start_ms=start_ms, horizon_ms=horizon_ms
        )
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

        def make_dispatch(site: tuple[str, str]):
            def dispatch(lane_clock) -> None:
                # Batches may *finish* past the horizon (flagged), but
                # never start at/past it -- the slot engine's rule.
                if lane_clock.now_ms() >= horizon_ms:
                    return
                batch = self.strategy.rank_lane(
                    accounting.tasks_at(site),
                    lane_clock.now_ms(),
                    accounting.lane_load(site, lanes),
                    accounting.fleet_view(lanes),
                )[: self.batch_size]
                if not batch:
                    return
                self._execute_batch(
                    accounting, site, batch, lane_clock,
                    slot=accounting.n_batches_at(site),
                )
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
            enumerate(accounting.settled_events()),
            key=lambda pair: (pair[1].at_ms, pair[0]),
        )
        return self._build_report(
            strategy_name=self.strategy.name,
            simulated_hours=hours,
            events=[event for _, event in indexed],
            engine="event",
            lanes=accounting.stats(
                span_ms=hours * MS_PER_HOUR, lanes=lanes
            ),
            spindles=accounting.spindle_stats(span_ms=hours * MS_PER_HOUR),
        )

    # -- report assembly -------------------------------------------------

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
                max(0, n_audits - n_batches) * DISPATCH_OVERHEAD_MS
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

    It lives for one run, from ``start_ms`` to ``horizon_ms``, and owns
    the run's events and each site's unsettled runs.  A run that raises
    drops it, and with it every queued run's handle, so the verifiers
    drop those runs' bodies too.
    """

    def __init__(
        self, fleet: AuditFleet, *, start_ms: float, horizon_ms: float
    ) -> None:
        self._fleet = fleet
        self._start_ms = start_ms
        self._horizon_ms = horizon_ms
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
        #: The run's events in staging order.  A served audit's entry
        #: is ``None`` until its site settles.
        self._events: list[AuditEvent | None] = []
        #: Per site, the served audits not yet settled: (index into
        #: the events, slot, task, pending run, spindle wait).
        self._unsettled: dict[
            tuple[str, str],
            list[tuple[int, int, AuditTask, PendingAudit, float]],
        ] = {site: [] for site in self.sites}
        #: This run's own registry: per-lane counters, the one copy of
        #: each lane's numbers (``stats()`` reads them back).
        self.metrics = MetricsRegistry()
        families = [
            self.metrics.counter(name, help_text, ("provider", "site"))
            for name, help_text in _LANE_COUNTERS
        ]
        self._counters = {
            site: tuple(family.labels(*site) for family in families)
            for site in self.sites
        }
        self._shed = self.metrics.counter(
            "repro_fleet_shed_total",
            "Lane slot ticks dropped by a full queue",
            ("provider", "site"),
        )
        obs.metrics().include(self.metrics)
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

    def site_spindle(self, site: tuple[str, str]) -> SpindleQueue:
        """The spindle of the site's *contracted* storage server.

        A relaying provider serves from elsewhere, so a relayed batch
        legitimately shows zero contracted-spindle time here.
        """
        provider, datacentre = site
        return (
            self._fleet.deployment(provider)
            .provider.datacentre(datacentre)
            .server.spindle
        )

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
        return int(self._counters[site][0].value)

    def charge(
        self,
        site: tuple[str, str],
        *,
        n_audits: int,
        busy_ms: float,
        disk_ms: float,
        wait_ms: float = 0.0,
        n_stolen: int = 0,
    ) -> None:
        """Account one dispatched batch against its lane."""
        batches, audits, busy, disk, wait, stolen, _ = self._counters[site]
        batches.inc()
        audits.inc(n_audits)
        busy.inc(busy_ms)
        disk.inc(disk_ms)
        wait.inc(wait_ms)
        stolen.inc(n_stolen)

    def record(
        self,
        site: tuple[str, str],
        slot: int,
        task: AuditTask,
        staged: PendingAudit | _Unserved,
        *,
        spindle_wait_ms: float,
    ) -> None:
        """Record one audit that a batch at ``site`` staged.

        An unserved audit's event is built at once.  A served audit
        keeps its place in the event order and queues its run at the
        site until :meth:`settle`.
        """
        if isinstance(staged, _Unserved):
            self._events.append(self._event_for(
                site, slot, task, staged, spindle_wait_ms
            ))
            return
        self._unsettled[site].append(
            (len(self._events), slot, task, staged, spindle_wait_ms)
        )
        self._events.append(None)

    def n_unsettled(self, site: tuple[str, str]) -> int:
        """Runs queued at ``site`` and not yet sealed."""
        return len(self._unsettled[site])

    def settle(self, site: tuple[str, str]) -> None:
        """Seal and verify every run queued at ``site`` in one flush.

        A batch only holds its lane's provider (the slot engine fills
        it from one site, and work stealing stays inside a provider)
        and every audit ran at the site's verifier, so one
        :meth:`~repro.cloud.tpa.ThirdPartyAuditor.flush_verdicts` call
        seals the queue as one signed tree.  Each outcome becomes its
        audit's event and is dropped.  The wall time the flush takes,
        seal included, is charged to the lane's verify cost; simulated
        time is untouched.
        """
        queued = self._unsettled[site]
        if not queued:
            return
        started = wall_seconds()
        outcomes = self._fleet.deployment(site[0]).tpa.flush_verdicts(
            [entry[3] for entry in queued]
        )
        self._counters[site][-1].inc(wall_seconds() - started)
        for (index, slot, task, _, spindle_wait_ms), outcome in zip(
            queued, outcomes
        ):
            self._events[index] = self._event_for(
                site, slot, task, outcome, spindle_wait_ms
            )
        queued.clear()

    def settled_events(self) -> list[AuditEvent]:
        """Settle every site still holding runs; the run's events.

        Sites settle in :attr:`sites` order, and the events come back
        in staging order.
        """
        for site in self.sites:
            self.settle(site)
        return self._events

    def _event_for(
        self,
        site: tuple[str, str],
        slot: int,
        task: AuditTask,
        outcome: AuditOutcome | _Unserved,
        spindle_wait_ms: float,
    ) -> AuditEvent:
        """Record one audit at its (possibly lane-local) finish time.

        ``slot`` is the dispatching slot index -- global in the slot
        engine, lane-local in the event engine (identical for a
        single-site fleet).  ``site`` is the lane that ran the audit
        (its data centre differs from the task's home for stolen
        audits) and ``spindle_wait_ms`` the shared-spindle queue wait
        its lookups absorbed.  Audits whose batch legitimately started
        inside the horizon but finished past it are flagged, not
        dropped, so both engines treat overruns identically.

        The timestamp is the outcome's own protocol finish time:
        verification consumes no simulated time, so this is exactly
        the clock reading at which the pre-batching code recorded the
        event -- which is what lets the engines defer verdicts to a
        per-site settle without moving a single event.  An unserved
        audit is rejected for ``unserved`` with no measured RTT.
        """
        finished_ms = outcome.finished_ms
        if isinstance(outcome, _Unserved):
            accepted, max_rtt_ms = False, 0.0
            rtt_max_ms, reasons = outcome.rtt_max_ms, ("unserved",)
        else:
            verdict = outcome.verdict
            accepted, max_rtt_ms = verdict.accepted, verdict.max_rtt_ms
            rtt_max_ms = verdict.rtt_max_ms
            reasons = tuple(verdict.failure_reasons)
        return AuditEvent(
            slot=slot,
            tenant=task.tenant,
            provider=task.provider_name,
            file_id=task.file_id,
            datacentre=task.datacentre,
            at_ms=finished_ms - self._start_ms,
            accepted=accepted,
            max_rtt_ms=max_rtt_ms,
            rtt_max_ms=rtt_max_ms,
            failure_reasons=reasons,
            overran_horizon=finished_ms > self._horizon_ms,
            executed_at=site[1],
            spindle_wait_ms=spindle_wait_ms,
        )

    def stats(
        self,
        *,
        span_ms: float,
        lanes: dict[tuple[str, str], Lane] | None = None,
    ) -> tuple[LaneStats, ...]:
        """Freeze the accounting into report rows.

        Batch counts and busy time (the accumulated batch spans) come
        from the charges in both engines, verify cost from the
        settles.  With ``lanes`` (event engine) wait classification and
        queue stats come from each :class:`Lane`; without (slot engine)
        the wait is the contracted spindles' and queue depth is zero by
        construction.
        """
        rows = []
        for site in self.sites:
            batches, audits, busy_ms, disk_ms, wait_ms, stolen, verify = (
                counter.value for counter in self._counters[site]
            )
            lane = lanes.get(site) if lanes is not None else None
            if lane is not None and lane.dropped:
                # Shed work only becomes known at freeze time: the
                # Lane counts dropped ticks itself.
                self._shed.labels(*site).inc(lane.dropped)
            rows.append(
                LaneStats(
                    provider=site[0],
                    datacentre=site[1],
                    n_batches=int(batches),
                    n_audits=int(audits),
                    busy_ms=busy_ms,
                    disk_busy_ms=disk_ms,
                    utilization=busy_ms / span_ms if span_ms > 0 else 0.0,
                    peak_queue_depth=(
                        lane.peak_queue_depth if lane is not None else 0
                    ),
                    dropped_slots=lane.dropped if lane is not None else 0,
                    spindle_wait_ms=(
                        lane.clock.waiting_ms if lane is not None else wait_ms
                    ),
                    stolen_audits=int(stolen),
                    verify_seconds=verify,
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
