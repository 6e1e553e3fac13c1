"""Cloud actors: provider, data centres, verifier device, TPA, SLA.

This package models the deployment of Fig. 4:

* :mod:`repro.cloud.sla` -- the SLA's geographic clause and the timing
  budget derived from it.
* :mod:`repro.cloud.provider` -- the cloud provider with one or more
  data centres, each a located simulated-HDD storage backend on a LAN;
  honest providers serve locally, dishonest ones relay (Fig. 6) or
  corrupt.
* :mod:`repro.cloud.verifier` -- the tamper-proof, GPS-enabled
  verifier device on the provider's LAN; it runs the timed phase and
  signs transcripts.
* :mod:`repro.cloud.tpa` -- the third-party auditor that drives
  audits on the data owner's behalf and verifies everything.
* :mod:`repro.cloud.adversary` -- provider misbehaviour strategies:
  relocation/relay, corruption, deletion, cache prefetching, and
  transcript forgery attempts.
"""

from repro.cloud.adversary import (
    CorruptionAttack,
    DeletionAttack,
    PrefetchRelayAttack,
    RelayAttack,
)
from repro.cloud.provider import CloudProvider, DataCentre
from repro.cloud.sla import SLAPolicy
from repro.cloud.tpa import AuditOutcome, ThirdPartyAuditor
from repro.cloud.verifier import VerifierDevice

__all__ = [
    "SLAPolicy",
    "DataCentre",
    "CloudProvider",
    "VerifierDevice",
    "ThirdPartyAuditor",
    "AuditOutcome",
    "RelayAttack",
    "PrefetchRelayAttack",
    "CorruptionAttack",
    "DeletionAttack",
]
