"""GeoProof: proofs of geographic location for cloud storage.

A from-scratch reproduction of Albeshri, Boyd & Gonzalez Nieto,
"GeoProof: Proofs of Geographic Location for Cloud Computing
Environment" (ICDCS Workshops 2012).

GeoProof lets a data owner verify -- without trusting the provider's
word -- that an outsourced file physically resides where the SLA says
it does.  It combines the MAC-based Juels-Kaliski proof of
retrievability with a timed, distance-bounding challenge/response
phase run by a tamper-proof GPS-enabled verifier device on the
provider's LAN, audited by a third party.

Quickstart::

    from repro import GeoProofSession, city

    session = GeoProofSession.build(datacentre_location=city("sydney"))
    session.outsource(b"backup-2026", open("backup.tar", "rb").read())
    outcome = session.audit(b"backup-2026")
    assert outcome.verdict.accepted

Package layout (README.md's package map has the full inventory):

* :mod:`repro.core` -- the GeoProof protocol: messages, timing
  calibration, TPA verification, session orchestration.
* :mod:`repro.fleet` -- fleet-scale batch auditing: many tenants and
  providers on one shared clock, pluggable scheduling strategies
  (:class:`~repro.fleet.strategies.AuditStrategy` contract), per-data-
  centre challenge batching, aggregated
  :class:`~repro.fleet.report.FleetReport` compliance reporting.
* :mod:`repro.economics` -- adversarial cache/prefetch economics:
  closed-form LRU hit rates under uniform challenges
  (:class:`~repro.economics.cache_model.LRUHitModel`), fleet-level
  attack campaigns (:class:`~repro.economics.campaign.AdversaryCampaign`),
  attacker ROI and per-tenant defence pricing against a shared
  :class:`~repro.economics.costs.CostModel`.
* :mod:`repro.por` -- proofs of storage: the Juels-Kaliski pipeline,
  MAC-POR, sentinel-POR, dynamic POR, detection analysis.
* :mod:`repro.distbound` -- classic distance-bounding protocols and
  their attacks.
* :mod:`repro.cloud` -- provider, data centres, verifier device, TPA,
  SLA, adversary strategies.
* :mod:`repro.crypto`, :mod:`repro.gf`, :mod:`repro.erasure` -- the
  cryptographic and coding substrates (AES, HMAC, PRP, Schnorr,
  Reed-Solomon), all implemented from scratch.
* :mod:`repro.netsim`, :mod:`repro.storage`, :mod:`repro.geo` -- the
  simulated world: clocks, latency models, topologies, disks, GPS.
* :mod:`repro.geoloc` -- the geolocation baselines the paper reviews.
* :mod:`repro.analysis` -- experiment runners and report formatting.
"""

from repro.cloud.adversary import (
    CorruptionAttack,
    DeletionAttack,
    PartialRelocationAttack,
    PrefetchRelayAttack,
    RelayAttack,
)
from repro.cloud.provider import CloudProvider, DataCentre
from repro.cloud.sla import SLAPolicy
from repro.cloud.tpa import AuditOutcome, ThirdPartyAuditor
from repro.cloud.verifier import VerifierDevice
from repro.core.calibration import (
    TimingBudget,
    calibrate_rtt_max,
    relay_distance_bound_km,
)
from repro.core.messages import AuditRequest, SignedTranscript, TimedRound
from repro.core.session import GeoProofSession
from repro.core.verification import (
    GeoProofVerdict,
    TranscriptVerification,
    verify_transcript,
    verify_transcripts,
)
from repro.crypto.rng import DeterministicRNG
from repro.economics import (
    AdversaryCampaign,
    CostModel,
    EconomicsReport,
    LRUHitModel,
    TenantQuote,
    build_economics_report,
    price_tenant,
)
from repro.errors import ReproError, VerificationError
from repro.fleet import (
    AuditFleet,
    AuditStrategy,
    DeadlineStrategy,
    FleetReport,
    RiskWeightedStrategy,
    RoundRobinStrategy,
)
from repro.geo.coords import GeoPoint, haversine_km
from repro.geo.datasets import city
from repro.geo.regions import (
    BoundingBox,
    CircularRegion,
    PolygonRegion,
    UnionRegion,
)
from repro.por.parameters import PORParams
from repro.por.setup import PORKeys, extract_file, setup_file

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core protocol
    "GeoProofSession",
    "AuditRequest",
    "TimedRound",
    "SignedTranscript",
    "GeoProofVerdict",
    "verify_transcript",
    "verify_transcripts",
    "TranscriptVerification",
    "TimingBudget",
    "calibrate_rtt_max",
    "relay_distance_bound_km",
    # actors
    "CloudProvider",
    "DataCentre",
    "VerifierDevice",
    "ThirdPartyAuditor",
    "AuditOutcome",
    "SLAPolicy",
    # fleet auditing
    "AuditFleet",
    "FleetReport",
    "AuditStrategy",
    "RoundRobinStrategy",
    "RiskWeightedStrategy",
    "DeadlineStrategy",
    # economics
    "CostModel",
    "LRUHitModel",
    "AdversaryCampaign",
    "EconomicsReport",
    "TenantQuote",
    "build_economics_report",
    "price_tenant",
    # adversaries
    "RelayAttack",
    "PrefetchRelayAttack",
    "PartialRelocationAttack",
    "CorruptionAttack",
    "DeletionAttack",
    # POR
    "PORParams",
    "PORKeys",
    "setup_file",
    "extract_file",
    # geography
    "GeoPoint",
    "haversine_km",
    "city",
    "CircularRegion",
    "BoundingBox",
    "PolygonRegion",
    "UnionRegion",
    # utilities
    "DeterministicRNG",
    "ReproError",
    "VerificationError",
]
