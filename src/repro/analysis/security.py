"""Aggregated security analysis of a GeoProof deployment.

Combines the Section V-C arguments into one structured report:

* integrity: per-challenge and cumulative detection probabilities for
  a given corruption fraction, plus the irretrievability bound from
  the Reed-Solomon code;
* distance: the calibrated Delta-t_max, the relay bound for the
  best-known adversary disk, and the headroom contributed by the
  margin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.sla import SLAPolicy
from repro.core.calibration import (
    margin_headroom_km,
    relay_distance_bound_km,
)
from repro.errors import ConfigurationError
from repro.por.analysis import (
    cumulative_detection,
    detection_probability,
    file_irretrievability_probability,
)
from repro.por.parameters import PORParams
from repro.util.bitops import ceil_div
from repro.util.validation import check_probability


@dataclass(frozen=True)
class SecurityReport:
    """The numbers a data owner would read before signing the SLA."""

    n_segments: int
    k_rounds: int
    corruption_fraction: float
    per_challenge_detection: float
    detection_after_10_audits: float
    irretrievability_bound: float
    rtt_max_ms: float
    relay_bound_km: float
    margin_headroom_km: float

    def summary_lines(self) -> list[str]:
        """Human-readable summary for reports/examples."""
        return [
            f"segments: {self.n_segments}, rounds per audit: {self.k_rounds}",
            (
                f"corruption of {self.corruption_fraction:.3%} detected per audit "
                f"with p = {self.per_challenge_detection:.3f}"
            ),
            (
                "detection within 10 audits: "
                f"{self.detection_after_10_audits:.6f}"
            ),
            (
                "file irretrievability (RS bound): "
                f"{self.irretrievability_bound:.3e}"
            ),
            f"timing budget Delta-t_max: {self.rtt_max_ms:.3f} ms",
            (
                "relay distance bound (fast-disk adversary): "
                f"{self.relay_bound_km:.0f} km"
            ),
            f"margin headroom: {self.margin_headroom_km:.0f} km",
        ]


def analyse_deployment(
    *,
    n_segments: int,
    sla: SLAPolicy,
    params: PORParams | None = None,
    corruption_fraction: float = 0.005,
    k_rounds: int | None = None,
) -> SecurityReport:
    """Build a :class:`SecurityReport` for a deployment's parameters."""
    params = params or PORParams()
    check_probability("corruption_fraction", corruption_fraction)
    if n_segments <= 0:
        raise ConfigurationError(
            f"n_segments must be positive, got {n_segments}"
        )
    k = k_rounds if k_rounds is not None else sla.min_rounds
    n_corrupted = round(corruption_fraction * n_segments)
    per_challenge = detection_probability(n_segments, n_corrupted, min(k, n_segments))
    after_10 = cumulative_detection(per_challenge, 10)
    # RS erasure decoding heals up to (n - k) erased blocks per chunk
    # when tags localise the damage; the blind-correction radius is
    # (n - k) / 2.  Use the blind radius for the conservative bound.
    radius_blocks = (params.ecc_total_blocks - params.ecc_data_blocks) // 2
    n_blocks = n_segments * params.segment_blocks
    n_chunks = max(1, ceil_div(n_blocks, params.ecc_total_blocks))
    irretrievable = file_irretrievability_probability(
        n_chunks, params.ecc_total_blocks, radius_blocks, corruption_fraction
    )
    segment_bytes = params.segment_bytes + params.tag_bytes
    relay_bound = relay_distance_bound_km(sla.rtt_max_ms, segment_bytes=segment_bytes)
    return SecurityReport(
        n_segments=n_segments,
        k_rounds=k,
        corruption_fraction=corruption_fraction,
        per_challenge_detection=per_challenge,
        detection_after_10_audits=after_10,
        irretrievability_bound=irretrievable,
        rtt_max_ms=sla.rtt_max_ms,
        relay_bound_km=relay_bound,
        margin_headroom_km=margin_headroom_km(sla.margin_ms),
    )
