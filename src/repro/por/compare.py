"""Comparing POS schemes (Section IV of the paper).

The paper weighs the sentinel POR against the MAC-based variant and
picks the MAC scheme "for simplicity".  This module makes the
comparison concrete: for a given file and audit parameters it accounts
each scheme's costs -- storage overhead, client state, challenge and
response bandwidth, audits supported before exhaustion -- so the
trade-off the paper waves at becomes a table the bench can print.

Key structural differences captured:

* **Sentinels are consumable**: each audit burns q sentinels, so a
  file encoded with s sentinels supports ``s // q`` audits; MAC tags
  are reusable forever.
* **Sentinel responses are block-sized** (one block per query); MAC
  responses carry whole segments (v blocks + tag) -- bigger responses,
  but each response also *proves more data present*.
* **Client state**: both are O(1) (keys only) in our implementations;
  the sentinel client additionally tracks the consumption counter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.por.parameters import PORParams
from repro.util.bitops import ceil_div


@dataclass(frozen=True)
class SchemeCosts:
    """Audit-cost card for one POS scheme on one file."""

    scheme: str
    storage_overhead_fraction: float
    challenge_bytes: int
    response_bytes: int
    data_proven_per_audit_bytes: int
    audits_supported: float  # inf for reusable schemes
    client_state_bytes: int


def mac_por_costs(
    file_bytes: int,
    k_rounds: int,
    params: PORParams | None = None,
) -> SchemeCosts:
    """Cost card for the MAC-based POR GeoProof uses."""
    params = params or PORParams()
    if file_bytes <= 0 or k_rounds <= 0:
        raise ConfigurationError("file_bytes and k_rounds must be positive")
    n_segments = params.segments_for(file_bytes)
    if k_rounds > n_segments:
        raise ConfigurationError(
            f"k_rounds {k_rounds} exceeds segment count {n_segments}"
        )
    segment_bytes = params.segment_bytes + params.tag_bytes
    return SchemeCosts(
        scheme="mac-por",
        storage_overhead_fraction=params.measured_expansion(file_bytes),
        challenge_bytes=8 * k_rounds + 16,  # indices + nonce
        response_bytes=k_rounds * segment_bytes,
        data_proven_per_audit_bytes=k_rounds * params.segment_bytes,
        audits_supported=float("inf"),
        client_state_bytes=3 * 32,  # the three sub-keys
    )


def sentinel_por_costs(
    file_bytes: int,
    q_sentinels_per_audit: int,
    n_sentinels: int,
    params: PORParams | None = None,
) -> SchemeCosts:
    """Cost card for the sentinel POR baseline."""
    params = params or PORParams()
    if file_bytes <= 0 or q_sentinels_per_audit <= 0 or n_sentinels <= 0:
        raise ConfigurationError("all sizes must be positive")
    if q_sentinels_per_audit > n_sentinels:
        raise ConfigurationError("per-audit query exceeds sentinel supply")
    encoded_blocks = params.encoded_blocks_for(file_bytes)
    stored_bytes = (encoded_blocks + n_sentinels) * params.block_bytes
    return SchemeCosts(
        scheme="sentinel-por",
        storage_overhead_fraction=stored_bytes / file_bytes - 1.0,
        challenge_bytes=8 * q_sentinels_per_audit,
        response_bytes=q_sentinels_per_audit * params.block_bytes,
        data_proven_per_audit_bytes=0,  # sentinels prove no file data
        audits_supported=n_sentinels // q_sentinels_per_audit,
        client_state_bytes=32 + 8,  # master key + consumption counter
    )


def equal_detection_parameters(
    epsilon: float, target_detection: float
) -> int:
    """Queries needed by *either* scheme for the target detection.

    Both schemes detect an epsilon-corrupter with ``1-(1-eps)^q`` per
    audit (uniform random positions), so the query count is shared --
    the comparison is then purely about bandwidth, storage and
    reusability at the same security level.
    """
    from repro.por.analysis import queries_for_detection

    return queries_for_detection(epsilon, target_detection)


def compare_schemes(file_bytes: int) -> list[SchemeCosts]:
    """Both cost cards at equal per-audit detection probability.

    The paper's working point: catch 0.5 % corruption with probability
    0.713 per audit, with one year of daily audits' worth of sentinels,
    under the paper's POR parameters.
    """
    params = PORParams()
    q = equal_detection_parameters(0.005, 0.713)
    n_sentinels = q * 365
    return [
        mac_por_costs(file_bytes, q, params),
        sentinel_por_costs(file_bytes, q, n_sentinels, params),
    ]
