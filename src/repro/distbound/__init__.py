"""Distance-bounding protocols (Section III-A of the paper).

The classic RF protocols GeoProof draws its timing phase from:

* :mod:`repro.distbound.base` -- the shared two-phase framework
  (untimed initialisation, timed bit-exchange rounds) and transcripts
  (Fig. 1).
* :mod:`repro.distbound.brands_chaum` -- Brands-Chaum (EUROCRYPT'93):
  commitment + XOR responses + signed transcript.
* :mod:`repro.distbound.hancke_kuhn` -- Hancke-Kuhn (SecureComm'05):
  symmetric-key, two PRF-derived registers (Fig. 2).
* :mod:`repro.distbound.reid` -- Reid et al. (ASIACCS'07): Hancke-Kuhn
  hardened against terrorist attack by encrypting the shared secret
  under a session key bound to both identities (Fig. 3).
* :mod:`repro.distbound.attacks` -- distance fraud, mafia fraud and
  terrorist (relay) attack simulators.
* :mod:`repro.distbound.analysis` -- closed-form false-acceptance
  bounds ((3/4)^n for Hancke-Kuhn style protocols, (1/2)^n for
  Brands-Chaum).
"""

from repro.distbound.analysis import (
    brands_chaum_false_accept,
    hancke_kuhn_false_accept,
    rounds_for_security,
)
from repro.distbound.attacks import (
    DistanceFraudProver,
    MafiaFraudRelay,
    TerroristAccomplice,
)
from repro.distbound.base import (
    DistanceBoundingResult,
    RoundRecord,
    Transcript,
    rtt_to_distance_km,
)
from repro.distbound.brands_chaum import BrandsChaumProver, BrandsChaumVerifier
from repro.distbound.hancke_kuhn import HanckeKuhnProver, HanckeKuhnVerifier
from repro.distbound.noisy import (
    adversary_acceptance,
    choose_threshold,
    honest_acceptance,
)
from repro.distbound.reid import ReidProver, ReidVerifier

__all__ = [
    "Transcript",
    "RoundRecord",
    "DistanceBoundingResult",
    "rtt_to_distance_km",
    "BrandsChaumProver",
    "BrandsChaumVerifier",
    "HanckeKuhnProver",
    "HanckeKuhnVerifier",
    "ReidProver",
    "ReidVerifier",
    "DistanceFraudProver",
    "MafiaFraudRelay",
    "TerroristAccomplice",
    "hancke_kuhn_false_accept",
    "brands_chaum_false_accept",
    "rounds_for_security",
    "honest_acceptance",
    "adversary_acceptance",
    "choose_threshold",
]
