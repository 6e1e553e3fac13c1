"""Pluggable audit-scheduling strategies for the fleet engine.

The fleet has finite audit capacity -- one batch of timed PoR/GeoProof
audits per scheduling slot -- and many registered files competing for
it.  *Which* file gets the next slot is the scheduling policy, and the
right policy depends on the deployment: fairness for homogeneous
tenants, risk-weighting when tenants declare different corruption
tolerances, deadline-driven when SLAs promise a fixed audit cadence.

The strategy contract is deliberately tiny:

``rank(tasks, now_ms) -> list[AuditTask]``
    Return the tasks in descending scheduling priority.  The slot
    engine audits the head of the ranking and then batches
    lower-ranked tasks homed at the same data centre (see
    :meth:`~repro.fleet.fleet.AuditFleet.run`).  Rankings must be
    **deterministic**: equal-priority ties break on registration
    order, never on dict/hash order, so a seeded fleet run always
    produces an identical :class:`~repro.fleet.report.FleetReport`.

``rank_lane(tasks, now_ms, lane=None, fleet=None) -> list[AuditTask]``
    Rank one data centre's slice of the queue (the event engine calls
    this once per lane per slot, with that lane's local time).  The
    base-class fallback applies the fleet-wide ``rank`` to the lane's
    tasks, which keeps the two engines' schedules identical whenever
    only one lane exists; strategies may override it with genuinely
    lane-local policies.  ``lane`` is this lane's load snapshot
    (:class:`LaneLoad`: queue depth, frontier, mean dispatch cost) and
    ``fleet`` the whole fleet's (:class:`FleetLoadView`), both
    ``None`` under the slot engine -- so every lane-aware policy must
    degenerate to the fleet-wide ranking when they are absent or
    report an unloaded lane, which is what keeps the slot-vs-event
    equivalence anchor intact.  A lane ranking may include tasks
    *homed at sibling lanes* of the same provider when the file is
    replicated at this lane's site (see
    :class:`WorkStealingStrategy`); the engine runs such a task
    through this site's verifier against the local replica.

Strategies never mutate tasks; the fleet owns their bookkeeping
(last-audit times).

Four built-in policies cover the paper-relevant space:

* :class:`RoundRobinStrategy` -- fair rotation (least-recently-audited
  first), the baseline every scheduling comparison starts from.
* :class:`RiskWeightedStrategy` -- greedy expected-detection-gain
  scheduling driven by the cumulative-detection math in
  :mod:`repro.analysis.scheduling`; its lane ranking scores exposure
  at the task's *expected service time* (now + the lane's queue-depth
  backlog estimate), not its dispatch time.
* :class:`DeadlineStrategy` -- earliest-deadline-first over each
  file's SLA audit interval; its lane ranking reshuffles a saturated
  lane, parking hopelessly late tasks (overdue by more than a full
  interval at expected service time) behind the still-salvageable.
* :class:`WorkStealingStrategy` -- wraps any base policy; an idle lane
  additionally pulls tasks from saturated sibling lanes of the same
  provider whose files are replicated locally.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.por.analysis import detection_probability_binomial
from repro.util.validation import check_positive, check_probability

MS_PER_HOUR = 3_600_000.0


@dataclass
class AuditTask:
    """One registered file's standing entry in the audit queue.

    Attributes
    ----------
    tenant:
        The data owner the file belongs to (report aggregation key).
    provider_name / file_id:
        Where the file is outsourced; together the queue key.
    datacentre:
        The *contracted* home site -- audits always go through the
        verifier device on this site's LAN, regardless of where a
        misbehaving provider actually serves from.
    interval_hours:
        The SLA audit cadence; feeds :class:`DeadlineStrategy`.
    epsilon:
        The corruption fraction this tenant must catch (their declared
        risk tolerance); feeds :class:`RiskWeightedStrategy`.
    k_rounds:
        Timed challenge rounds per audit of this file.
    order:
        Registration sequence number; the universal deterministic
        tie-break.
    registered_ms / last_audit_ms:
        Fleet-maintained bookkeeping.
    replica_datacentres:
        Sibling sites of the same provider holding an audited replica
        of this file (empty when unreplicated).  An audit of this task
        may run at any of these sites -- that replica site's verifier
        and SLA region apply -- which is what lane-aware strategies
        exploit to migrate work off a saturated home lane.  This is
        the fleet's one record of the file's placement.
    """

    tenant: str
    provider_name: str
    file_id: bytes
    datacentre: str
    interval_hours: float
    epsilon: float
    k_rounds: int
    order: int
    registered_ms: float
    last_audit_ms: float | None = None
    replica_datacentres: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        check_positive("interval_hours", self.interval_hours)
        check_probability("epsilon", self.epsilon)
        if self.k_rounds <= 0:
            raise ConfigurationError(
                f"k_rounds must be positive, got {self.k_rounds}"
            )

    @property
    def key(self) -> tuple[str, bytes]:
        """The queue identity of this task."""
        return (self.provider_name, self.file_id)

    @property
    def site(self) -> tuple[str, str]:
        """The (provider, data centre) batching group."""
        return (self.provider_name, self.datacentre)

    def due_ms(self) -> float:
        """When the SLA cadence next calls for an audit."""
        anchor = (
            self.last_audit_ms
            if self.last_audit_ms is not None
            else self.registered_ms
        )
        return anchor + self.interval_hours * MS_PER_HOUR

    def exposure_hours(self, now_ms: float) -> float:
        """Hours since this file was last audited (or registered)."""
        anchor = (
            self.last_audit_ms
            if self.last_audit_ms is not None
            else self.registered_ms
        )
        return max(0.0, (now_ms - anchor) / MS_PER_HOUR)

    def per_audit_detection(self) -> float:
        """P[one audit catches corruption at this task's epsilon]."""
        return detection_probability_binomial(self.epsilon, self.k_rounds)


@dataclass(frozen=True)
class LaneLoad:
    """One audit lane's load snapshot, handed to ``rank_lane``.

    Taken at dispatch time from the lane's bounded queue and worker
    clock, so strategies can react to saturation without owning any
    lane state themselves.
    """

    #: The (provider, data centre) lane key.
    site: tuple[str, str]
    #: Dispatches parked in the lane's bounded in-flight queue.
    queue_depth: int
    #: The lane-local time up to which the shard is committed.
    frontier_ms: float
    #: Simulated ms of audit work the lane has done so far this run.
    busy_ms: float
    #: Batches the lane has worked through so far this run.
    n_dispatched: int

    @property
    def mean_dispatch_ms(self) -> float:
        """Average cost of one dispatched batch on this lane so far."""
        return self.busy_ms / self.n_dispatched if self.n_dispatched else 0.0

    @property
    def expected_wait_ms(self) -> float:
        """Queue-depth estimate of the delay before new work runs.

        Each parked dispatch costs about one mean batch; an unloaded
        lane (empty queue, or no history yet) estimates zero -- the
        degenerate case lane-aware rankings must treat as "behave
        exactly like the fleet-wide ranking".
        """
        return self.queue_depth * self.mean_dispatch_ms


class FleetLoadView:
    """Read-only cross-lane snapshot handed to ``rank_lane``.

    Built by the event engine at each dispatch so a strategy can see
    every sibling lane's load and queue slice without reaching into
    the fleet.  Lanes appear in canonical (first-registration) site
    order -- iterate :attr:`loads`, never a dict, when determinism
    matters.
    """

    def __init__(
        self,
        loads: Sequence[LaneLoad],
        tasks_by_site: dict[tuple[str, str], list[AuditTask]],
    ) -> None:
        self.loads = tuple(loads)
        self._tasks_by_site = tasks_by_site
        self._by_site = {load.site: load for load in self.loads}

    def load(self, site: tuple[str, str]) -> LaneLoad:
        """One lane's load snapshot."""
        if site not in self._by_site:
            raise ConfigurationError(f"unknown lane {site!r}")
        return self._by_site[site]

    def tasks_at(self, site: tuple[str, str]) -> list[AuditTask]:
        """The tasks homed at one lane, in registration order."""
        return list(self._tasks_by_site.get(site, ()))


class AuditStrategy(ABC):
    """The scheduling-policy contract (see module docstring)."""

    #: Short name used in reports and CLI flags.
    name: str = "abstract"

    @abstractmethod
    def rank(
        self, tasks: Sequence[AuditTask], now_ms: float
    ) -> list[AuditTask]:
        """Tasks in descending scheduling priority (deterministic)."""

    def rank_lane(
        self,
        tasks: Sequence[AuditTask],
        now_ms: float,
        lane: LaneLoad | None = None,
        fleet: FleetLoadView | None = None,
    ) -> list[AuditTask]:
        """Rank one lane's slice of the queue (event engine hook).

        Fleet-wide fallback: apply :meth:`rank` to the lane's own
        tasks.  ``now_ms`` is the *lane's* local time, which may be
        ahead of the global clock when the lane overran its slots;
        ``lane``/``fleet`` carry load snapshots for lane-aware
        policies (see the module docstring) and default to ``None``
        under the slot engine.
        """
        return self.rank(tasks, now_ms)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class RoundRobinStrategy(AuditStrategy):
    """Fair rotation: least-recently-audited first.

    Never-audited tasks precede audited ones in registration order, so
    a fresh fleet sweeps the queue exactly once before revisiting
    anybody -- the classic round robin, expressed statelessly so the
    same strategy object can serve multiple fleets.
    """

    name = "round-robin"

    def rank(
        self, tasks: Sequence[AuditTask], now_ms: float
    ) -> list[AuditTask]:
        """Sort by last audit time (never-audited first), then order."""
        return sorted(
            tasks,
            key=lambda t: (
                t.last_audit_ms if t.last_audit_ms is not None else -1.0,
                t.order,
            ),
        )


class RiskWeightedStrategy(AuditStrategy):
    """Greedy expected-detection-gain scheduling.

    Each audit of a file catches an epsilon-fraction corruption with
    probability ``p = 1 - (1 - epsilon)^k``
    (:func:`repro.por.analysis.detection_probability_binomial`, the
    same math :mod:`repro.analysis.scheduling` builds schedules from).
    A file that has gone ``h`` hours unaudited has accumulated ``h``
    hours of undetected-violation exposure, so the expected exposure an
    audit retires is ``p * (h + interval)`` -- the interval term
    charges a freshly-registered file its full cadence of uncertainty,
    which keeps the score risk-dominated at fleet start when every
    exposure clock reads zero.
    """

    name = "risk-weighted"

    def score(self, task: AuditTask, now_ms: float) -> float:
        """Expected undetected-exposure hours retired by auditing now."""
        return task.per_audit_detection() * (
            task.exposure_hours(now_ms) + task.interval_hours
        )

    def rank(
        self, tasks: Sequence[AuditTask], now_ms: float
    ) -> list[AuditTask]:
        """Sort by score, highest first; ties on registration order."""
        return sorted(
            tasks, key=lambda t: (-self.score(t, now_ms), t.order)
        )

    def rank_lane(
        self,
        tasks: Sequence[AuditTask],
        now_ms: float,
        lane: LaneLoad | None = None,
        fleet: FleetLoadView | None = None,
    ) -> list[AuditTask]:
        """Queue-depth-aware ranking: score at expected *service* time.

        A batch chosen now on a backlogged lane will not actually run
        for ``expected_wait_ms`` more milliseconds, so every task's
        exposure is scored at that future instant -- risk keeps
        accruing while the lane drains.  Unloaded lanes (and the slot
        engine, which passes no view) score at ``now_ms``, identical
        to the fleet-wide ranking.
        """
        if lane is None or lane.expected_wait_ms <= 0.0:
            return self.rank(tasks, now_ms)
        return self.rank(tasks, now_ms + lane.expected_wait_ms)


class DeadlineStrategy(AuditStrategy):
    """Earliest-deadline-first over the SLA audit intervals.

    Each task is due ``interval_hours`` after its last audit (or its
    registration); the most overdue file always wins the slot.  This
    is the policy that minimises worst-case cadence violation when the
    fleet has enough capacity, at the cost of ignoring risk entirely.
    """

    name = "deadline"

    def rank(
        self, tasks: Sequence[AuditTask], now_ms: float
    ) -> list[AuditTask]:
        """Sort by due time, earliest first; ties on registration order."""
        return sorted(tasks, key=lambda t: (t.due_ms(), t.order))

    def rank_lane(
        self,
        tasks: Sequence[AuditTask],
        now_ms: float,
        lane: LaneLoad | None = None,
        fleet: FleetLoadView | None = None,
    ) -> list[AuditTask]:
        """Deadline reshuffling for a saturated lane.

        Plain EDF is invariant under queue delay (the due order does
        not change), so the useful lane-aware move is the classic
        overload reshuffle: a task that will already be overdue by
        more than one full audit interval at its expected service
        time (``now + expected_wait``) is *hopeless* -- its cadence
        violation can no longer be averted -- and is parked behind
        every still-salvageable task instead of starving them too.
        Unloaded lanes reshuffle nothing and match :meth:`rank`.
        """
        if lane is None or lane.expected_wait_ms <= 0.0:
            return self.rank(tasks, now_ms)
        service_ms = now_ms + lane.expected_wait_ms

        def hopeless(task: AuditTask) -> bool:
            return (
                service_ms - task.due_ms()
                > task.interval_hours * MS_PER_HOUR
            )

        return sorted(
            tasks,
            key=lambda t: (1 if hopeless(t) else 0, t.due_ms(), t.order),
        )


class WorkStealingStrategy(AuditStrategy):
    """Migrate audits from saturated lanes to idle sibling lanes.

    Wraps a base policy (round-robin by default).  Under the slot
    engine -- and on any lane whose own queue is backed up -- it is
    exactly the base policy.  On an event-engine lane with spare
    headroom it appends *stolen* work to the local ranking: tasks
    homed at sibling lanes of the same provider that are

    * **saturated** -- at least ``steal_threshold`` dispatches parked
      in their bounded queue, and strictly deeper than this lane's
      (so two backlogged lanes never trade work back and forth), and
    * **replicated here** -- the file has an audited replica at this
      lane's site, so the audit can run through this site's verifier
      against the local copy (the engine applies the replica site's
      SLA region and timing budget).

    Local tasks always rank ahead of stolen ones: stealing fills a
    lane's spare batch capacity, it never displaces the lane's own
    obligations.  Stolen candidates are ranked by the base policy so
    e.g. a round-robin thief sweeps the victim's backlog in fair
    order.  Auditing a stolen task updates the shared task record, so
    the home lane sees the file as freshly audited and moves on --
    that is the migration.
    """

    name = "work-stealing"

    def __init__(
        self,
        base: AuditStrategy | None = None,
        *,
        steal_threshold: int = 1,
    ) -> None:
        if steal_threshold < 1:
            raise ConfigurationError(
                f"steal_threshold must be >= 1, got {steal_threshold}"
            )
        self.base = base if base is not None else RoundRobinStrategy()
        self.steal_threshold = steal_threshold

    def rank(
        self, tasks: Sequence[AuditTask], now_ms: float
    ) -> list[AuditTask]:
        """Fleet-wide fallback: the base policy (nothing to steal)."""
        return self.base.rank(tasks, now_ms)

    def stealable(
        self, task: AuditTask, site: tuple[str, str]
    ) -> bool:
        """Whether ``task`` may run at ``site`` instead of its home."""
        return (
            task.provider_name == site[0]
            and task.site != site
            and site[1] in task.replica_datacentres
        )

    def rank_lane(
        self,
        tasks: Sequence[AuditTask],
        now_ms: float,
        lane: LaneLoad | None = None,
        fleet: FleetLoadView | None = None,
    ) -> list[AuditTask]:
        """Local ranking first, then base-ranked stolen work."""
        local = self.base.rank_lane(tasks, now_ms, lane, fleet)
        if lane is None or fleet is None:
            return local
        stolen: list[AuditTask] = []
        for load in fleet.loads:
            if load.site == lane.site:
                continue
            if load.queue_depth < self.steal_threshold:
                continue
            if load.queue_depth <= lane.queue_depth:
                continue
            for task in fleet.tasks_at(load.site):
                if self.stealable(task, lane.site):
                    stolen.append(task)
        if not stolen:
            return local
        return local + self.base.rank(stolen, now_ms)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WorkStealingStrategy(base={self.base!r})"


#: Registry used by the CLI/bench to resolve ``--strategy`` flags.
STRATEGIES: dict[str, type[AuditStrategy]] = {
    RoundRobinStrategy.name: RoundRobinStrategy,
    RiskWeightedStrategy.name: RiskWeightedStrategy,
    DeadlineStrategy.name: DeadlineStrategy,
    WorkStealingStrategy.name: WorkStealingStrategy,
}


def make_strategy(name: str) -> AuditStrategy:
    """Instantiate a registered strategy by name (CLI helper)."""
    if name not in STRATEGIES:
        raise ConfigurationError(
            f"unknown strategy {name!r}; available: "
            f"{', '.join(sorted(STRATEGIES))}"
        )
    return STRATEGIES[name]()
