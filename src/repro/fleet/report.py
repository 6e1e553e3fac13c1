"""Aggregated results of a fleet audit run.

A :class:`FleetReport` is the deliverable of
:meth:`repro.fleet.fleet.AuditFleet.run`: per-tenant acceptance rates,
violation-detection latencies, the breakdown of GeoProof verdicts by
failure mode, per-datacentre lane activity (:class:`LaneStats`:
utilization, queue depth, shed slots, spindle wait, stolen audits, and
the concurrency speedup the event engine extracted), and per-spindle
contention accounting (:class:`SpindleStats`: queue wait and
utilization of each shared storage array), all rendered through the
same ASCII formatting the paper-table benches use
(:mod:`repro.analysis.reporting`) and exportable as machine-readable
JSON via :meth:`FleetReport.to_dict` (the ``fleet --json`` CLI path).

Everything here is a frozen dataclass built from deterministic inputs,
so two runs of the same seeded fleet compare equal (`==`) field by
field -- the determinism contract the fleet test suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.reporting import format_table
from repro.fleet.strategies import MS_PER_HOUR


def _file_label(file_id: bytes) -> str:
    """Human/JSON-safe rendering of a file id."""
    return file_id.decode("utf-8", "replace")


@dataclass(frozen=True)
class AuditEvent:
    """One completed fleet audit (the report's raw material)."""

    slot: int
    tenant: str
    provider: str
    file_id: bytes
    datacentre: str
    at_ms: float
    accepted: bool
    max_rtt_ms: float
    rtt_max_ms: float
    failure_reasons: tuple[str, ...]
    #: True when the audit *finished* past the run's horizon: its batch
    #: legitimately started inside the window but overran it.  Both
    #: engines flag these the same way instead of silently mixing them
    #: with in-window events.
    overran_horizon: bool = False
    #: The data centre whose lane actually ran the audit.  Equals
    #: ``datacentre`` (the contracted home) unless a work-stealing
    #: lane migrated the audit to a replica site.
    executed_at: str = ""
    #: Spindle queue wait this audit's lookups absorbed (contention on
    #: a shared storage array); 0 on dedicated spindles.
    spindle_wait_ms: float = 0.0

    @property
    def at_hours(self) -> float:
        """Simulated hours since fleet start when this audit finished."""
        return self.at_ms / MS_PER_HOUR

    @property
    def stolen(self) -> bool:
        """Whether a sibling lane ran this audit instead of the home."""
        return bool(self.executed_at) and self.executed_at != self.datacentre

    @property
    def contention_timeout(self) -> bool:
        """A timing failure at least partly caused by spindle queueing.

        The signature of contention-driven false rejection: the
        verdict tripped the Delta-t_max bound *and* the audit's
        lookups absorbed non-zero shared-spindle wait.
        """
        return (
            not self.accepted
            and "timing" in self.failure_reasons
            and self.spindle_wait_ms > 0.0
        )


@dataclass(frozen=True)
class LaneStats:
    """One data-centre audit lane's activity over a run.

    The slot engine reports the same per-site accounting (with queue
    depth pinned at zero -- a global loop never queues per lane) so
    slot and event runs are comparable column for column.  The charged
    columns are read from the run's own registry, so they are the
    ``repro_fleet_*`` series (see docs/OBSERVABILITY.md).
    """

    provider: str
    datacentre: str
    n_batches: int
    n_audits: int
    #: Simulated ms the lane spent auditing (dispatch overhead + timed
    #: rounds), i.e. this shard's busy time.
    busy_ms: float
    #: Portion of ``busy_ms`` the site's spindle was seeking/reading
    #: (the Delta-t_L share; the rest is LAN + dispatch overhead).
    disk_busy_ms: float
    #: ``busy_ms`` over the run's horizon span.
    utilization: float
    #: Deepest the lane's bounded in-flight queue got.
    peak_queue_depth: int
    #: Slot ticks shed because the bounded queue was full.
    dropped_slots: int
    #: Share of ``busy_ms`` spent parked on shared spindle queues
    #: (contention, not productive disk work); 0 on dedicated disks.
    spindle_wait_ms: float = 0.0
    #: Audits this lane executed for files homed at sibling lanes
    #: (work-stealing migrations it absorbed).
    stolen_audits: int = 0
    #: Real (wall-clock) seconds the lane's verdict settles took: the
    #: verifier's seal of the site's queued runs (one signature per
    #: settle) plus the TPA's batch verification.  The one *measured*
    #: column in the report: it varies run to run like any wall-time
    #: quantity, so it is excluded from the dataclass equality the
    #: determinism and slot-vs-event anchors pin (``compare=False``)
    #: and from :meth:`FleetReport.render`; it is exported via
    #: :meth:`FleetReport.to_dict` and tracked by
    #: bench_verify/bench_fleet.
    verify_seconds: float = field(default=0.0, compare=False)

    @property
    def site(self) -> tuple[str, str]:
        """The (provider, data centre) lane key."""
        return (self.provider, self.datacentre)


@dataclass(frozen=True)
class SpindleStats:
    """One storage spindle's contention accounting over a run.

    A spindle is one :class:`~repro.netsim.resources.SpindleQueue` --
    dedicated (one site) or shared (several sites' lanes queue on it).
    All counters are deltas for this run only; ``n_requests`` and
    ``wait_ms`` come from the spindle's ``repro_spindle_wait_ms``
    histogram (its count and sum).
    """

    provider: str
    #: The spindle queue's name (e.g. ``acme/spindle-0``).
    spindle: str
    #: Data centres backed by this spindle, in registration order.
    sites: tuple[str, ...]
    #: Lookups serviced this run.
    n_requests: int
    #: Lookups that had to queue behind another lane's service.
    n_waited: int
    #: Seek + rotate + transfer time granted this run.
    busy_ms: float
    #: Queue wait absorbed by requesters this run.
    wait_ms: float
    #: Largest single-lookup wait this run.
    peak_wait_ms: float
    #: ``busy_ms`` over the run's horizon span.
    utilization: float

    @property
    def shared(self) -> bool:
        """Whether more than one site's lane queues on this spindle."""
        return len(self.sites) > 1

    @property
    def mean_wait_ms(self) -> float:
        """Average queue wait per serviced lookup."""
        return self.wait_ms / self.n_requests if self.n_requests else 0.0


@dataclass(frozen=True)
class TenantSummary:
    """Acceptance accounting for one tenant."""

    tenant: str
    n_files: int
    n_audits: int
    n_accepted: int
    #: Earliest violation detection on any of the tenant's files, in
    #: simulated hours since fleet start (None = nothing detected).
    #: This is the per-tenant detection latency the economics engine
    #: prices defences off.
    first_detection_hours: float | None = None

    @property
    def acceptance_rate(self) -> float:
        """Fraction of this tenant's audits that were accepted."""
        return self.n_accepted / self.n_audits if self.n_audits else 0.0


@dataclass(frozen=True)
class ViolationRecord:
    """First detection of an SLA violation on one file."""

    tenant: str
    provider: str
    file_id: bytes
    detected_at_hours: float
    failure_reasons: tuple[str, ...]


@dataclass(frozen=True)
class FleetReport:
    """What a fleet run produced, aggregated for compliance reporting."""

    strategy: str
    simulated_hours: float
    n_providers: int
    n_files: int
    n_batches: int
    events: tuple[AuditEvent, ...]
    tenants: tuple[TenantSummary, ...]
    violations: tuple[ViolationRecord, ...]
    #: ``(label, count)`` over audit verdicts: "accepted" plus one
    #: entry per failure tag (timing/mac/gps/signature/challenge).
    verdict_breakdown: tuple[tuple[str, int], ...]
    #: Per-batch dispatch overhead avoided by batching audits per data
    #: centre: ``(n_audits - n_batches) * DISPATCH_OVERHEAD_MS``.
    overhead_saved_ms: float = 0.0
    #: Which run loop produced this report: ``"slot"`` (serial global
    #: loop) or ``"event"`` (per-datacentre lanes on the scheduler).
    engine: str = "slot"
    #: Per-lane activity, in lane creation (first registration) order.
    lanes: tuple[LaneStats, ...] = ()
    #: Per-spindle contention accounting, in provider/spindle order.
    spindles: tuple[SpindleStats, ...] = ()
    #: Adversaries injected via
    #: :meth:`~repro.fleet.fleet.AuditFleet.inject_adversary`, as
    #: sorted ``(provider, strategy class name)`` pairs -- every report
    #: names the misbehaviour it ran under.
    adversaries: tuple[tuple[str, str], ...] = ()

    @property
    def n_audits(self) -> int:
        """Total audits performed across the run."""
        return len(self.events)

    @property
    def n_overrun_events(self) -> int:
        """Audits that finished past the run horizon (flagged, kept)."""
        return sum(1 for e in self.events if e.overran_horizon)

    @property
    def n_stolen_audits(self) -> int:
        """Audits executed at a replica site instead of the home lane."""
        return sum(1 for e in self.events if e.stolen)

    @property
    def n_contention_timeouts(self) -> int:
        """Timing failures with non-zero shared-spindle queue wait.

        The count of audits a *dedicated* spindle would plausibly have
        accepted: the timing bound tripped while the lookups were
        queued behind other lanes' service.  (Relayed audits also fail
        timing but absorb no contracted-spindle wait, so they are not
        counted here.)
        """
        return sum(1 for e in self.events if e.contention_timeout)

    @property
    def n_shed_slots(self) -> int:
        """Slot ticks shed fleet-wide by saturated bounded lane queues."""
        return sum(lane.dropped_slots for lane in self.lanes)

    @property
    def total_spindle_wait_ms(self) -> float:
        """Queue wait absorbed across every spindle this run."""
        return sum(s.wait_ms for s in self.spindles)

    @property
    def total_verify_seconds(self) -> float:
        """Real seconds spent computing verdicts across all lanes.

        Wall-clock, not simulated (see :attr:`LaneStats.verify_seconds`):
        the cost of the verdict settles, each site's seals included,
        the quantity bench_verify's >=5x gate drives down.  Like every
        ``verify_seconds`` field it is left out of report equality and
        of perfbench's fleet digest.
        """
        return sum(lane.verify_seconds for lane in self.lanes)

    @property
    def concurrency_speedup(self) -> float:
        """Serial-equivalent busy time over the critical lane's busy time.

        ``sum(lane busy) / max(lane busy)``: how much simulated audit
        work overlapped across sites.  1.0 for a single lane (or the
        slot engine's serial loop, where nothing overlaps by
        construction); approaches the number of evenly-loaded sites
        under the event engine.
        """
        if not self.lanes:
            return 1.0
        busiest = max(lane.busy_ms for lane in self.lanes)
        if busiest <= 0.0:
            return 1.0
        if self.engine != "event":
            return 1.0
        return sum(lane.busy_ms for lane in self.lanes) / busiest

    @property
    def acceptance_rate(self) -> float:
        """Fleet-wide fraction of accepted audits."""
        if not self.events:
            return 0.0
        return sum(1 for e in self.events if e.accepted) / len(self.events)

    @property
    def audits_per_simulated_hour(self) -> float:
        """Fleet throughput in audits per simulated hour."""
        if self.simulated_hours <= 0:
            return 0.0
        return self.n_audits / self.simulated_hours

    def detection_hours(
        self, file_id: bytes, provider: str | None = None
    ) -> float | None:
        """Simulated hours to first detection on a file, if any.

        Fleet identity is ``(provider, file_id)``; pass ``provider``
        whenever the same file id may be registered with more than one
        provider, otherwise the earliest match across providers wins.
        """
        hours = [
            v.detected_at_hours
            for v in self.violations
            if v.file_id == file_id
            and (provider is None or v.provider == provider)
        ]
        return min(hours) if hours else None

    def first_detection_hours(self) -> float | None:
        """Earliest violation detection across the fleet, if any."""
        if not self.violations:
            return None
        return min(v.detected_at_hours for v in self.violations)

    def tenant_summary(self, tenant: str) -> TenantSummary | None:
        """Look up one tenant's acceptance accounting."""
        for summary in self.tenants:
            if summary.tenant == tenant:
                return summary
        return None

    # -- machine-readable export ----------------------------------------

    def to_dict(self) -> dict:
        """The whole report as JSON-serialisable plain data.

        This is the ``fleet --json`` payload: summary aggregates plus
        the per-lane, per-spindle, per-tenant and violation tables,
        and the full merged audit stream.  File ids are decoded with
        replacement so arbitrary byte ids cannot break serialisation.
        """
        payload = {
            "strategy": self.strategy,
            "engine": self.engine,
            "simulated_hours": self.simulated_hours,
            "n_providers": self.n_providers,
            "n_files": self.n_files,
            "n_audits": self.n_audits,
            "n_batches": self.n_batches,
            "acceptance_rate": self.acceptance_rate,
            "audits_per_simulated_hour": self.audits_per_simulated_hour,
            "overhead_saved_ms": self.overhead_saved_ms,
            "concurrency_speedup": self.concurrency_speedup,
            "first_detection_hours": self.first_detection_hours(),
            "n_overrun_events": self.n_overrun_events,
            "n_stolen_audits": self.n_stolen_audits,
            "n_contention_timeouts": self.n_contention_timeouts,
            "n_shed_slots": self.n_shed_slots,
            "total_spindle_wait_ms": self.total_spindle_wait_ms,
            "total_verify_seconds": self.total_verify_seconds,
            "verdict_breakdown": {
                label: count for label, count in self.verdict_breakdown
            },
            "adversaries": {
                provider: strategy
                for provider, strategy in self.adversaries
            },
            "tenants": [
                {
                    "tenant": t.tenant,
                    "n_files": t.n_files,
                    "n_audits": t.n_audits,
                    "n_accepted": t.n_accepted,
                    "acceptance_rate": t.acceptance_rate,
                    "first_detection_hours": t.first_detection_hours,
                }
                for t in self.tenants
            ],
            "lanes": [
                {
                    "provider": lane.provider,
                    "datacentre": lane.datacentre,
                    "n_batches": lane.n_batches,
                    "n_audits": lane.n_audits,
                    "busy_ms": lane.busy_ms,
                    "disk_busy_ms": lane.disk_busy_ms,
                    "spindle_wait_ms": lane.spindle_wait_ms,
                    "utilization": lane.utilization,
                    "peak_queue_depth": lane.peak_queue_depth,
                    "dropped_slots": lane.dropped_slots,
                    "stolen_audits": lane.stolen_audits,
                    "verify_seconds": lane.verify_seconds,
                }
                for lane in self.lanes
            ],
            "spindles": [
                {
                    "provider": s.provider,
                    "spindle": s.spindle,
                    "sites": list(s.sites),
                    "shared": s.shared,
                    "n_requests": s.n_requests,
                    "n_waited": s.n_waited,
                    "busy_ms": s.busy_ms,
                    "wait_ms": s.wait_ms,
                    "mean_wait_ms": s.mean_wait_ms,
                    "peak_wait_ms": s.peak_wait_ms,
                    "utilization": s.utilization,
                }
                for s in self.spindles
            ],
            "violations": [
                {
                    "tenant": v.tenant,
                    "provider": v.provider,
                    "file_id": _file_label(v.file_id),
                    "detected_at_hours": v.detected_at_hours,
                    "failure_reasons": list(v.failure_reasons),
                }
                for v in self.violations
            ],
        }
        payload["events"] = [
            {
                "slot": e.slot,
                "tenant": e.tenant,
                "provider": e.provider,
                "file_id": _file_label(e.file_id),
                "datacentre": e.datacentre,
                "executed_at": e.executed_at,
                "stolen": e.stolen,
                "at_ms": e.at_ms,
                "accepted": e.accepted,
                "max_rtt_ms": e.max_rtt_ms,
                "rtt_max_ms": e.rtt_max_ms,
                "spindle_wait_ms": e.spindle_wait_ms,
                "contention_timeout": e.contention_timeout,
                "failure_reasons": list(e.failure_reasons),
                "overran_horizon": e.overran_horizon,
            }
            for e in self.events
        ]
        return payload

    # -- rendering ------------------------------------------------------

    def render(self) -> str:
        """ASCII compliance report (tenants, verdicts, violations)."""
        sections = [
            format_table(
                ["strategy", "engine", "sim hours", "providers", "files",
                 "audits", "batches", "accept rate"],
                [[
                    self.strategy,
                    self.engine,
                    self.simulated_hours,
                    self.n_providers,
                    self.n_files,
                    self.n_audits,
                    self.n_batches,
                    self.acceptance_rate,
                ]],
                title="Fleet audit run",
                decimals=3,
            ),
            format_table(
                ["tenant", "files", "audits", "accepted", "rate",
                 "detected (h)"],
                [
                    [t.tenant, t.n_files, t.n_audits, t.n_accepted,
                     t.acceptance_rate,
                     (t.first_detection_hours
                      if t.first_detection_hours is not None
                      else "-")]
                    for t in self.tenants
                ],
                title="Per-tenant acceptance",
                decimals=3,
            ),
            format_table(
                ["verdict", "audits"],
                [list(row) for row in self.verdict_breakdown],
                title="Verdict breakdown",
            ),
        ]
        if self.lanes:
            sections.append(
                format_table(
                    ["provider", "site", "batches", "audits", "busy ms",
                     "disk ms", "wait ms", "util", "peak queue", "dropped",
                     "stolen"],
                    [
                        [
                            lane.provider,
                            lane.datacentre,
                            lane.n_batches,
                            lane.n_audits,
                            lane.busy_ms,
                            lane.disk_busy_ms,
                            lane.spindle_wait_ms,
                            lane.utilization,
                            lane.peak_queue_depth,
                            lane.dropped_slots,
                            lane.stolen_audits,
                        ]
                        for lane in self.lanes
                    ],
                    title=(
                        "Audit lanes (concurrency speedup "
                        f"{self.concurrency_speedup:.2f}x)"
                    ),
                    decimals=3,
                )
            )
        if self.spindles:
            sections.append(
                format_table(
                    ["provider", "spindle", "sites", "lookups", "queued",
                     "busy ms", "wait ms", "peak wait", "util"],
                    [
                        [
                            s.provider,
                            s.spindle,
                            "+".join(s.sites),
                            s.n_requests,
                            s.n_waited,
                            s.busy_ms,
                            s.wait_ms,
                            s.peak_wait_ms,
                            s.utilization,
                        ]
                        for s in self.spindles
                    ],
                    title=(
                        "Storage spindles "
                        f"({self.n_contention_timeouts} contention-induced "
                        f"timeouts, {self.n_stolen_audits} stolen audits, "
                        f"{self.n_shed_slots} shed slots)"
                    ),
                    decimals=3,
                )
            )
        if self.adversaries:
            sections.append(
                "Injected adversaries: "
                + ", ".join(
                    f"{provider} ({strategy})"
                    for provider, strategy in self.adversaries
                )
            )
        if self.violations:
            sections.append(
                format_table(
                    ["tenant", "provider", "file", "detected (h)", "reasons"],
                    [
                        [
                            v.tenant,
                            v.provider,
                            _file_label(v.file_id),
                            v.detected_at_hours,
                            "+".join(v.failure_reasons),
                        ]
                        for v in self.violations
                    ],
                    title="Violations detected",
                    decimals=2,
                )
            )
        else:
            sections.append("Violations detected\n(none)")
        return "\n\n".join(sections)
