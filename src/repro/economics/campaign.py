"""Fleet-level adversary campaigns: attack physics, measured.

The closed forms in :mod:`repro.economics.cache_model` and
:mod:`repro.economics.pricing` predict what a caching relayer earns;
an :class:`AdversaryCampaign` *measures* it, by injecting real
:mod:`repro.cloud.adversary` strategies into fresh
:class:`~repro.fleet.fleet.AuditFleet` runs and sweeping the front
cache size across both run engines.  Every cell of the sweep rebuilds
the identical seeded fleet (the 3-site demo scenario: one tenant per
provider, the violator onboarded last), relocates the violator's files
offshore, installs the attack with a proportionally prewarmed cache --
*metered* staging, the remote spindle sees every warmed byte -- runs
the audit horizon, and reads back what the closed forms claimed:

* the front cache's measured hit rate vs the analytic
  ``min(c, n) / n``;
* the observed per-audit detection rate vs the paper's
  ``1 - (cache/file)^k`` bound;
* detection latency (fleet-wide and per tenant) vs cache bytes;
* the attacker's ledger at the observed audit cadence
  (:func:`~repro.economics.pricing.attack_economics`).

The prewarm is split *proportionally* across the violator's files
(``c_f = c * n_f / n``).  That is the attacker's rational allocation
-- lumping the budget onto a subset of files buys the same aggregate
hit rate but leaves the uncached files detecting every audit, i.e. by
Jensen's inequality a lopsided split can only raise the mean per-audit
detection rate above ``1 - (c/n)^k`` for the cached files while the
fleet still catches the rest -- and it is also what keeps the measured
aggregate comparable to the single-population closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cloud.adversary import (
    DeletionAttack,
    PrefetchRelayAttack,
    RelayAttack,
)
from repro.cloud.provider import DataCentre
from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError
from repro.fleet.demo import PROVIDER_SITES, RELAY_SITE, build_demo_fleet
from repro.fleet.fleet import AuditFleet
from repro.fleet.report import FleetReport
from repro.geo.datasets import city
from repro.storage.hdd import IBM_36Z15
from repro.util.validation import check_positive

from repro.economics.cache_model import LRUHitModel
from repro.economics.costs import HOURS_PER_MONTH, CostModel, DEFAULT_COST_MODEL
from repro.economics.pricing import AttackEconomics, attack_economics

#: Attack kinds a campaign can inject.
ATTACKS = ("prefetch-relay", "relay", "deletion")

#: Default cache sweep, as fractions of the victim's segment population.
DEFAULT_SWEEP_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Floor on the detection-bound slack (see
#: :attr:`CampaignCell.bound_slack`).
DETECTION_BOUND_TOLERANCE = 0.02


def measure_tenant_facts(
    fleet: AuditFleet, provider: str, tasks: list
) -> tuple[tuple[tuple[bytes, int], ...], int, int, float]:
    """Honest-state storage facts for one tenant's files at a provider.

    Returns ``(per-file (file_id, n_segments) pairs, stored bytes,
    entry wire bytes, SLA rtt_max_ms)`` read off a *pre-injection*
    fleet -- the single aggregation both the victim geometry
    (:meth:`AdversaryCampaign.measure_geometry`) and the per-tenant
    quote inputs (:func:`~repro.economics.report.build_economics_report`)
    are built from, so the two can never drift apart.
    """
    if not tasks:
        raise ConfigurationError(
            f"no files registered with {provider!r}"
        )
    deployment = fleet.deployment(provider)
    segments = []
    stored = 0
    for task in tasks:
        record = fleet.record(provider, task.file_id)
        segments.append((task.file_id, record.n_segments))
        stored += record.stored_bytes
    sample = (
        deployment.provider.datacentre(tasks[0].datacentre)
        .server.store.get_segment(tasks[0].file_id, 0)
    )
    return (
        tuple(segments),
        stored,
        len(sample.wire_bytes()),
        deployment.tpa.record(tasks[0].file_id).sla.rtt_max_ms,
    )


@dataclass(frozen=True)
class VictimGeometry:
    """The violator-side numbers every closed form needs.

    Measured off a freshly built (pre-injection) fleet so analytic
    models and simulated cells agree on the population they describe.
    """

    provider: str
    tenant: str
    front_site: str
    n_files: int
    n_segments: int
    stored_bytes: int
    entry_bytes: int
    #: Per-file segment counts, in registration order (drives the
    #: proportional prewarm split).
    segments_per_file: tuple[tuple[bytes, int], ...]
    #: The victim SLA's timing budget (for the quote's timing radius).
    rtt_max_ms: float

    def to_dict(self) -> dict:
        """JSON-serialisable geometry summary."""
        return {
            "provider": self.provider,
            "tenant": self.tenant,
            "front_site": self.front_site,
            "n_files": self.n_files,
            "n_segments": self.n_segments,
            "stored_bytes": self.stored_bytes,
            "entry_bytes": self.entry_bytes,
            "rtt_max_ms": self.rtt_max_ms,
        }


@dataclass(frozen=True)
class CampaignCell:
    """One (attack, engine, cache size) sweep cell, measured end to end."""

    attack: str
    engine: str
    cache_bytes: int
    cache_fraction: float
    analytic_hit_rate: float
    simulated_hit_rate: float
    #: Exact per-audit detection probability (hypergeometric; None
    #: for attacks the cache model does not describe, e.g. deletion).
    detection_probability: float | None
    #: The paper's ``1 - (cache/file)^k`` lower bound (None for
    #: attacks it does not apply to, e.g. deletion).
    detection_bound: float | None
    observed_detection_rate: float
    victim_audits: int
    n_detected_files: int
    n_victim_files: int
    first_detection_hours: float | None
    worst_detection_hours: float | None
    tenant_detection_hours: float | None
    audits_per_month: float
    prewarmed_bytes: int
    relayed_bytes: int
    economics: AttackEconomics | None

    @property
    def all_files_detected(self) -> bool:
        """Whether every victim file was flagged inside the horizon."""
        return self.n_detected_files == self.n_victim_files

    @property
    def bound_margin(self) -> float | None:
        """Observed detection rate minus the paper bound (None = n/a)."""
        if self.detection_bound is None:
            return None
        return self.observed_detection_rate - self.detection_bound

    @property
    def bound_slack(self) -> float | None:
        """Allowed dip of the *observed* rate under the paper bound.

        Two honest effects let the measured mean sit a hair below the
        asymptotic ``1 - (cache/file)^k``: finite sampling (escapes
        are rare events, so the observed rate carries a Poisson-tailed
        fluctuation -- allowed for at 3σ of the binomial deviation
        over ``victim_audits``) and LRU occupancy fluctuation
        (insert-on-miss churn makes the per-file cached count wander a
        few entries around its mean, and the escape probability is
        convex in it -- Jensen pushes the realised mean escape
        slightly above ``hit_rate^k``; measured at under a 1 % rate
        shift, allowed for by the flat churn term).  Neither weakens
        the per-audit guarantee: given the cache's actual state,
        escape is still at most ``(cached/total)^k`` for that state.
        """
        if self.detection_bound is None:
            return None
        sigma = (
            math.sqrt(
                self.detection_bound
                * (1.0 - self.detection_bound)
                / self.victim_audits
            )
            if self.victim_audits
            else 0.0
        )
        churn_allowance = 0.01
        return max(
            DETECTION_BOUND_TOLERANCE, 3.0 * sigma + churn_allowance
        )

    @property
    def bound_met(self) -> bool:
        """Whether observed detection met the bound within slack."""
        margin = self.bound_margin
        return margin is None or margin >= -(self.bound_slack or 0.0)

    @property
    def hit_rate_error(self) -> float:
        """Absolute analytic-vs-simulated hit-rate disagreement."""
        return abs(self.analytic_hit_rate - self.simulated_hit_rate)

    def to_dict(self) -> dict:
        """JSON-serialisable cell."""
        return {
            "attack": self.attack,
            "engine": self.engine,
            "cache_bytes": self.cache_bytes,
            "cache_fraction": self.cache_fraction,
            "analytic_hit_rate": self.analytic_hit_rate,
            "simulated_hit_rate": self.simulated_hit_rate,
            "hit_rate_error": self.hit_rate_error,
            "detection_probability": self.detection_probability,
            "detection_bound": self.detection_bound,
            "observed_detection_rate": self.observed_detection_rate,
            "bound_margin": self.bound_margin,
            "bound_slack": self.bound_slack,
            "bound_met": self.bound_met,
            "victim_audits": self.victim_audits,
            "n_detected_files": self.n_detected_files,
            "n_victim_files": self.n_victim_files,
            "all_files_detected": self.all_files_detected,
            "first_detection_hours": self.first_detection_hours,
            "worst_detection_hours": self.worst_detection_hours,
            "tenant_detection_hours": self.tenant_detection_hours,
            "audits_per_month": self.audits_per_month,
            "prewarmed_bytes": self.prewarmed_bytes,
            "relayed_bytes": self.relayed_bytes,
            "economics": (
                self.economics.to_dict()
                if self.economics is not None
                else None
            ),
        }


class AdversaryCampaign:
    """Sweep adversary configurations over seeded fleet runs.

    Parameters mirror :func:`~repro.fleet.demo.build_demo_fleet` (the
    scenario is the canonical demo fleet with the violation *removed*
    -- the campaign injects its own adversary): ``n_providers``
    providers with one site each, files dealt evenly, the last
    provider misbehaving in the requested ``attack`` mode.
    """

    def __init__(
        self,
        *,
        attack: str = "prefetch-relay",
        n_providers: int = 3,
        n_files: int = 12,
        k_rounds: int = 6,
        hours: float = 24.0,
        slot_minutes: float = 30.0,
        batch_size: int = 4,
        file_bytes: int = 2_000,
        interval_hours: float = 6.0,
        seed: str = "economics",
        cost_model: CostModel | None = None,
        delete_fraction: float = 0.10,
    ) -> None:
        if attack not in ATTACKS:
            raise ConfigurationError(
                f"unknown attack {attack!r}; available: {', '.join(ATTACKS)}"
            )
        check_positive("hours", hours)
        if not 0.0 <= delete_fraction <= 1.0:
            raise ConfigurationError(
                f"delete_fraction must be in [0, 1], got {delete_fraction}"
            )
        self.attack = attack
        self.n_providers = n_providers
        self.n_files = n_files
        self.k_rounds = k_rounds
        self.hours = hours
        self.slot_minutes = slot_minutes
        self.batch_size = batch_size
        self.file_bytes = file_bytes
        self.interval_hours = interval_hours
        self.seed = seed
        self.cost_model = (
            cost_model if cost_model is not None else DEFAULT_COST_MODEL
        )
        self.delete_fraction = delete_fraction

    # -- fleet assembly -------------------------------------------------

    @property
    def victim_provider(self) -> str:
        """The misbehaving provider (onboarded last, demo convention)."""
        return f"provider-{self.n_providers}"

    @property
    def front_site(self) -> str:
        """The violator's contracted home site."""
        return PROVIDER_SITES[self.n_providers - 1]

    def build_fleet(self, engine: str = "slot") -> AuditFleet:
        """A fresh, honest instance of the campaign scenario.

        Every cell rebuilds from the same seed, so slot-vs-event and
        cache-size comparisons audit the identical workload.
        """
        return build_demo_fleet(
            n_files=self.n_files,
            n_providers=self.n_providers,
            seed=self.seed,
            violation=None,
            file_bytes=self.file_bytes,
            interval_hours=self.interval_hours,
            slot_minutes=self.slot_minutes,
            batch_size=self.batch_size,
            k_rounds=self.k_rounds,
            engine=engine,
        )

    def measure_geometry(self, fleet: AuditFleet) -> VictimGeometry:
        """Read the victim population off a pre-injection fleet."""
        provider = self.victim_provider
        victim_tasks = [
            task
            for task in fleet.tasks()
            if task.provider_name == provider
        ]
        segments, stored, entry_bytes, rtt_max_ms = measure_tenant_facts(
            fleet, provider, victim_tasks
        )
        return VictimGeometry(
            provider=provider,
            tenant=victim_tasks[0].tenant,
            front_site=self.front_site,
            n_files=len(victim_tasks),
            n_segments=sum(n for _, n in segments),
            stored_bytes=stored,
            entry_bytes=entry_bytes,
            segments_per_file=segments,
            rtt_max_ms=rtt_max_ms,
        )

    # -- injection ------------------------------------------------------

    def inject(
        self,
        fleet: AuditFleet,
        geometry: VictimGeometry,
        cache_bytes: int,
    ):
        """Install the campaign's adversary on the violator.

        Relay-family attacks add the offshore site, relocate every
        victim file there via the fleet's
        :meth:`~repro.fleet.fleet.AuditFleet.inject_adversary` hook,
        and (for ``prefetch-relay``) prewarm the front cache
        proportionally across the victim files -- metered, priced
        through the campaign's cost model.  Returns the installed
        strategy.
        """
        provider = fleet.provider(geometry.provider)
        if self.attack == "deletion":
            strategy = DeletionAttack(
                geometry.front_site,
                self.delete_fraction,
                DeterministicRNG(f"{self.seed}-deletion"),
            )
            fleet.inject_adversary(geometry.provider, strategy)
            return strategy
        provider.add_datacentre(
            DataCentre(RELAY_SITE, city(RELAY_SITE), disk=IBM_36Z15)
        )
        # A plain relay really is a RelayAttack -- the report's
        # adversaries field must name the strategy that actually ran.
        strategy = (
            PrefetchRelayAttack(
                geometry.front_site, RELAY_SITE, cache_bytes=cache_bytes
            )
            if self.attack == "prefetch-relay"
            else RelayAttack(geometry.front_site, RELAY_SITE)
        )
        fleet.inject_adversary(
            geometry.provider, strategy, relocate_to=RELAY_SITE
        )
        if self.attack == "prefetch-relay" and cache_bytes > 0:
            capacity = cache_bytes // geometry.entry_bytes
            for file_id, n_file in geometry.segments_per_file:
                share = min(
                    n_file,
                    (capacity * n_file) // geometry.n_segments,
                )
                if share > 0:
                    strategy.prewarm(
                        provider,
                        file_id,
                        list(range(share)),
                        cost_model=self.cost_model,
                    )
        return strategy

    # -- measurement ----------------------------------------------------

    def prepare_cell(
        self, engine: str = "slot"
    ) -> tuple[AuditFleet, VictimGeometry]:
        """A fresh fleet plus its measured geometry, pre-injection.

        The staging half of :meth:`run_cell`, exposed so callers
        (:func:`~repro.economics.report.build_economics_report`) can
        read honest-state facts -- tenant quote inputs, the victim
        geometry -- off a cell's own fleet instead of paying an extra
        probe build.
        """
        fleet = self.build_fleet(engine)
        return fleet, self.measure_geometry(fleet)

    def run_cell(
        self, *, cache_fraction: float = 0.0, engine: str = "slot"
    ) -> CampaignCell:
        """Build, attack, audit and account one sweep cell.

        ``cache_fraction`` sizes the front cache as a fraction of the
        victim's segment population (whole entries, so the analytic
        and simulated capacities agree exactly); only the
        ``prefetch-relay`` attack takes a cache, so it must be zero
        for the others.
        """
        fleet, geometry = self.prepare_cell(engine)
        return self.run_on(fleet, geometry, cache_fraction=cache_fraction)

    def run_on(
        self,
        fleet: AuditFleet,
        geometry: VictimGeometry,
        *,
        cache_fraction: float = 0.0,
    ) -> CampaignCell:
        """Attack, audit and account a cell on an already-built fleet.

        The fleet runs on the engine it was built with.
        """
        if not 0.0 <= cache_fraction <= 1.0:
            raise ConfigurationError(
                f"cache_fraction must be in [0, 1], got {cache_fraction}"
            )
        if cache_fraction > 0.0 and self.attack != "prefetch-relay":
            raise ConfigurationError(
                f"the {self.attack!r} attack takes no cache; "
                f"cache_fraction must be 0, got {cache_fraction}"
            )
        cache_bytes = (
            math.ceil(cache_fraction * geometry.n_segments)
            * geometry.entry_bytes
        )
        strategy = self.inject(fleet, geometry, cache_bytes)
        report = fleet.run(hours=self.hours)
        return self._account(
            report, geometry, strategy, cache_bytes, cache_fraction, fleet.engine
        )

    def _account(
        self,
        report: FleetReport,
        geometry: VictimGeometry,
        strategy,
        cache_bytes: int,
        cache_fraction: float,
        engine: str,
    ) -> CampaignCell:
        """Fold one fleet run into a :class:`CampaignCell`."""
        victim_events = [
            e for e in report.events if e.provider == geometry.provider
        ]
        n_audits = len(victim_events)
        n_rejected = sum(1 for e in victim_events if not e.accepted)
        detections = [
            report.detection_hours(file_id, geometry.provider)
            for file_id, _ in geometry.segments_per_file
        ]
        detected = [d for d in detections if d is not None]
        model = LRUHitModel(
            cache_bytes=cache_bytes,
            entry_bytes=geometry.entry_bytes,
            n_segments=geometry.n_segments,
        )
        audits_per_month = (
            n_audits / self.hours * HOURS_PER_MONTH if self.hours else 0.0
        )
        relay_family = self.attack in ("prefetch-relay", "relay")
        cache = getattr(strategy, "cache", None)
        tenant_summary = report.tenant_summary(geometry.tenant)
        return CampaignCell(
            attack=self.attack,
            engine=engine,
            cache_bytes=cache_bytes,
            cache_fraction=cache_fraction,
            analytic_hit_rate=model.hit_rate,
            simulated_hit_rate=(
                cache.hit_rate if cache is not None else 0.0
            ),
            detection_probability=(
                model.detection_probability(self.k_rounds)
                if relay_family
                else None
            ),
            detection_bound=(
                model.paper_bound(self.k_rounds) if relay_family else None
            ),
            observed_detection_rate=(
                n_rejected / n_audits if n_audits else 0.0
            ),
            victim_audits=n_audits,
            n_detected_files=len(detected),
            n_victim_files=geometry.n_files,
            first_detection_hours=(min(detected) if detected else None),
            worst_detection_hours=(
                max(detected)
                if len(detected) == geometry.n_files
                else None
            ),
            tenant_detection_hours=(
                tenant_summary.first_detection_hours
                if tenant_summary is not None
                else None
            ),
            audits_per_month=audits_per_month,
            prewarmed_bytes=getattr(strategy, "prewarmed_bytes", 0),
            relayed_bytes=getattr(strategy, "relayed_bytes", 0),
            economics=(
                attack_economics(
                    cost_model=self.cost_model,
                    hit_model=model,
                    k_rounds=self.k_rounds,
                    audits_per_month=audits_per_month,
                    file_bytes=geometry.stored_bytes,
                )
                if relay_family
                else None
            ),
        )

    def sweep(self) -> list[CampaignCell]:
        """The full campaign grid: both engines x cache sizes.

        Only ``prefetch-relay`` sweeps the cache axis
        (:data:`DEFAULT_SWEEP_FRACTIONS`); ``relay`` and ``deletion``
        take no cache, so those campaigns run one zero-cache cell per
        engine.
        """
        fractions = (
            DEFAULT_SWEEP_FRACTIONS if self.attack == "prefetch-relay" else (0.0,)
        )
        return [
            self.run_cell(cache_fraction=fraction, engine=engine)
            for engine in ("slot", "event")
            for fraction in fractions
        ]

    def slot_event_streams_match(self) -> bool:
        """The equivalence anchor, with the adversary injected.

        Builds the *single-site* version of the scenario twice (one
        provider -- no cross-provider interleaving to differ on), with
        the identical injected adversary, and checks the slot and
        event engines produce the same audit event stream
        (timestamps rebased to each run's start).  This is the
        PR 3/PR 4 anchor extended to adversarial fleets: concurrency
        must not change *what* is detected, only when lanes overlap.
        A ``prefetch-relay`` adversary caches half the file.
        """
        cache_fraction = 0.5 if self.attack == "prefetch-relay" else 0.0
        streams = []
        for engine in ("slot", "event"):
            single = AdversaryCampaign(
                attack=self.attack,
                n_providers=1,
                n_files=max(1, self.n_files // self.n_providers),
                k_rounds=self.k_rounds,
                hours=self.hours,
                slot_minutes=self.slot_minutes,
                batch_size=self.batch_size,
                file_bytes=self.file_bytes,
                interval_hours=self.interval_hours,
                seed=self.seed,
                cost_model=self.cost_model,
                delete_fraction=self.delete_fraction,
            )
            fleet = single.build_fleet(engine)
            geometry = single.measure_geometry(fleet)
            cache_bytes = (
                math.ceil(cache_fraction * geometry.n_segments)
                * geometry.entry_bytes
            )
            single.inject(fleet, geometry, cache_bytes)
            report = fleet.run(hours=self.hours)
            streams.append(report.events)
        return streams[0] == streams[1]
