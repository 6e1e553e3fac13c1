"""Geographically diverse replication audits.

The paper cites Benson, Dowsley & Shacham (CCSW'11): "how to obtain
assurance that a cloud storage provider replicates the data in diverse
geolocations."  GeoProof audits compose naturally into that guarantee:
put one verifier device at each contracted replica site and require a
*simultaneously sound* audit at every site.  Because one physical copy
cannot answer two far-apart verifiers inside their local timing
budgets, k-of-n accepted audits at mutually distant sites witness
k distinct replicas.

:class:`ReplicationAuditor` orchestrates per-site GeoProof audits and
renders the replication verdict, including the *pairwise separation*
check: two accepted sites closer together than the sum of their timing
radii might be served by one copy placed between them, so diversity is
only credited to site pairs farther apart than that.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cloud.provider import CloudProvider, DataCentre
from repro.cloud.sla import SLAPolicy
from repro.cloud.tpa import AuditOutcome, ThirdPartyAuditor
from repro.cloud.verifier import VerifierDevice
from repro.errors import ConfigurationError
from repro.geo.coords import haversine_km
from repro.netsim.latency import INTERNET_SPEED_KM_PER_MS


@dataclass(frozen=True)
class ReplicaSite:
    """One contracted replica: its verifier device and SLA."""

    name: str
    verifier: VerifierDevice
    sla: SLAPolicy

    @property
    def timing_radius_km(self) -> float:
        """Distance radius the site's timing budget certifies.

        An accepted audit proves the serving copy is within this radius
        of the site's verifier (Internet-speed conversion of the full
        budget -- conservative, since part of the budget is disk time).
        """
        return INTERNET_SPEED_KM_PER_MS * self.sla.rtt_max_ms / 2.0


@dataclass
class ReplicationVerdict:
    """Outcome of a replication audit round."""

    outcomes: dict[str, AuditOutcome]
    accepted_sites: list[str]
    distinct_replicas: int
    insufficient_separation: list[tuple[str, str]] = field(default_factory=list)

    def meets(self, required_replicas: int) -> bool:
        """Does the round witness at least this many distinct replicas?"""
        return self.distinct_replicas >= required_replicas


class NearestCopyStrategy:
    """A rational provider: serve each request from the closest copy.

    Honest replication means a local copy exists at every site, so each
    audit is answered locally and fast.  A provider that skimped on
    replicas serves distant audits from the nearest *actual* copy --
    paying Internet flight time and failing that site's timing budget.
    The strategy is pinned to the verifier location of the site being
    audited (set by :meth:`ReplicationAuditor.audit_round`).

    Each file's nearest holder and flight distance are found on its
    first request and kept for the life of the instance.  Both callers
    build one instance per audit (``AuditFleet._stage_audit``) or per
    site per round (:meth:`ReplicationAuditor.audit_round`), so the
    memo never outlives the placement it read.
    """

    def __init__(self, requester_location) -> None:
        self.requester_location = requester_location
        self._nearest: dict[bytes, tuple[DataCentre, float]] = {}

    def _find_nearest(
        self, provider: CloudProvider, file_id: bytes
    ) -> tuple[DataCentre, float]:
        holders = [
            provider.datacentre(name)
            for name in provider.datacentre_names()
            if provider.datacentre(name).exists(file_id)
        ]
        if not holders:
            raise ConfigurationError(f"no data centre holds {file_id!r}")
        nearest = min(
            holders,
            key=lambda dc: haversine_km(dc.location, self.requester_location),
        )
        return nearest, haversine_km(nearest.location, self.requester_location)

    def handle_request(self, provider: CloudProvider, file_id: bytes, index: int):
        found = self._nearest.get(file_id)
        if found is None:
            found = self._nearest[file_id] = self._find_nearest(
                provider, file_id
            )
        nearest, flight_km = found
        result = nearest.lookup(file_id, index)
        if flight_km > 1.0:
            # Serving from a remote copy pays Internet flight time on
            # top of the remote disk.
            result = replace(
                result,
                elapsed_ms=result.elapsed_ms
                + provider.internet.rtt_ms(flight_km),
            )
        return result


class ReplicationAuditor:
    """Audits every replica site and counts provably distinct copies."""

    def __init__(self, tpa: ThirdPartyAuditor) -> None:
        self.tpa = tpa
        self._sites: dict[str, ReplicaSite] = {}

    def add_site(self, site: ReplicaSite) -> None:
        """Register a contracted replica site."""
        if site.name in self._sites:
            raise ConfigurationError(f"duplicate replica site {site.name!r}")
        self._sites[site.name] = site

    def sites(self) -> list[ReplicaSite]:
        """All registered sites."""
        return list(self._sites.values())

    def audit_round(
        self,
        file_id: bytes,
        provider: CloudProvider,
        *,
        k: int | None = None,
    ) -> ReplicationVerdict:
        """One replication audit: every site audited back-to-back.

        Each site's audit uses that site's verifier; the provider's
        serving policy decides which physical copy answers.  A site
        whose audit fails (timing or otherwise) contributes no replica
        evidence.  An honest provider serves each site from the copy
        nearest its verifier (:class:`NearestCopyStrategy`); an
        installed adversary strategy is never overridden.
        """
        if not self._sites:
            raise ConfigurationError("no replica sites registered")
        outcomes: dict[str, AuditOutcome] = {}
        accepted: list[str] = []
        previous_strategy = provider.strategy
        try:
            for name, site in self._sites.items():
                if previous_strategy is None:
                    # A rational provider serves this site's audit from
                    # the nearest copy it actually kept.
                    provider.set_strategy(
                        NearestCopyStrategy(site.verifier.location)
                    )
                outcome = self.tpa.audit(
                    file_id,
                    site.verifier,
                    provider,
                    k=k,
                    rtt_max_ms=site.sla.rtt_max_ms,
                    region=site.sla.region,
                )
                outcomes[name] = outcome
                if outcome.verdict.accepted:
                    accepted.append(name)
        finally:
            provider.set_strategy(previous_strategy)

        # Pairwise-separation filter: greedily keep accepted sites that
        # are farther from every kept site than the two timing radii
        # combined (otherwise one copy between them could serve both).
        kept: list[str] = []
        too_close: list[tuple[str, str]] = []
        for name in accepted:
            site = self._sites[name]
            conflict = None
            for other_name in kept:
                other = self._sites[other_name]
                separation = haversine_km(
                    site.verifier.location, other.verifier.location
                )
                if separation < site.timing_radius_km + other.timing_radius_km:
                    conflict = other_name
                    break
            if conflict is None:
                kept.append(name)
            else:
                too_close.append((name, conflict))

        return ReplicationVerdict(
            outcomes=outcomes,
            accepted_sites=accepted,
            distinct_replicas=len(kept),
            insufficient_separation=too_close,
        )
