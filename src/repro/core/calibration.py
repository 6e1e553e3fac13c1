"""Timing-budget calibration (Sections V-B/D/E/F).

The TPA accepts a round iff ``Delta-t_j <= Delta-t_max`` where

    Delta-t_max = Delta-t_VP (LAN round trip) + Delta-t_L (disk look-up)
                  [+ margin]

The paper's worked numbers: Delta-t_VP <= 3 ms, Delta-t_L <= 13 ms
(WD 2500JD class), so Delta-t_max ~= 16 ms.

The *relay bound* is the distance question in Fig. 6: if a cheating
provider forwards requests to a remote site with disks of look-up time
``Delta-t_LB``, the slack available for Internet flight is
``Delta-t_max - Delta-t_LB`` and the reachable distance is

    d <= (4/9 c) * (Delta-t_max - Delta-t_LB) / 2.

The paper instantiates this with its own simplification ("P is not
involved in any look up process"): slack = Delta-t_L(36Z15) = 5.406 ms
of *pure flight* gives 4/9 * 300 * 5.406 / 2 ~= 360 km.  Both forms are
provided.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.netsim.latency import INTERNET_SPEED_KM_PER_MS
from repro.storage.hdd import HDDModel, HDDSpec, IBM_36Z15, WD_2500JD
from repro.util.validation import check_positive


@dataclass(frozen=True)
class TimingBudget:
    """A fully calibrated audit timing budget."""

    lan_rtt_ms: float
    lookup_ms: float
    margin_ms: float

    @property
    def rtt_max_ms(self) -> float:
        """The accept threshold Delta-t_max."""
        return self.lan_rtt_ms + self.lookup_ms + self.margin_ms

    def describe(self) -> str:
        """One-line summary for audit reports."""
        return (
            f"Delta-t_max = {self.rtt_max_ms:.3f} ms "
            f"(LAN {self.lan_rtt_ms:.3f} + lookup {self.lookup_ms:.3f}"
            f" + margin {self.margin_ms:.3f})"
        )


def calibrate_rtt_max(
    disk: HDDSpec = WD_2500JD, *, margin_ms: float = 0.0
) -> TimingBudget:
    """Build the timing budget from contract-time measurements.

    The paper's 512-byte reads and 3 ms LAN budget; the default disk
    reproduces its Delta-t_max = 16.1055 ms ("must be less than
    Delta-t_max ~= 16 ms").
    """
    check_positive("margin_ms", margin_ms, strict=False)
    lookup = HDDModel(disk).lookup_ms(512)
    return TimingBudget(lan_rtt_ms=3.0, lookup_ms=lookup, margin_ms=margin_ms)


def relay_distance_bound_km(
    rtt_max_ms: float | None = None,
    *,
    segment_bytes: int = 512,
    paper_convention: bool = False,
) -> float:
    """Maximum distance a relaying adversary can hide.

    With ``paper_convention=False`` (default, the tight accounting):
    the adversary pays its own disk time on the paper's fast IBM 36Z15,
    so flight slack is ``rtt_max - lookup(IBM 36Z15)`` and

        d = internet_speed * slack / 2.

    With ``paper_convention=True``: the paper's Section V-C arithmetic,
    where the *entire* fast-disk look-up time 5.406 ms is treated as
    flight budget -- 4/9 * 300 km/ms * 5.406 ms / 2 = 360.4 km.
    (``rtt_max_ms`` is ignored in that mode, as in the paper.)
    """
    lookup = HDDModel(IBM_36Z15).lookup_ms(segment_bytes)
    if paper_convention:
        return INTERNET_SPEED_KM_PER_MS * lookup / 2.0
    if rtt_max_ms is None:
        raise ConfigurationError(
            "rtt_max_ms is required unless paper_convention=True"
        )
    if rtt_max_ms < 0:
        raise ConfigurationError(f"rtt_max must be >= 0, got {rtt_max_ms}")
    slack = max(0.0, rtt_max_ms - lookup)
    return INTERNET_SPEED_KM_PER_MS * slack / 2.0


def margin_headroom_km(
    margin_ms: float,
    internet_speed_km_per_ms: float = INTERNET_SPEED_KM_PER_MS,
) -> float:
    """Relay headroom bought by a timing margin.

    Every millisecond of accept-threshold margin lets a relay hide
    ``speed/2`` further away (~66.7 km at Internet speed): the central
    tension when tuning ``margin_ms`` against honest-jitter false
    rejects, swept in the ablation bench.
    """
    check_positive("margin_ms", margin_ms, strict=False)
    return internet_speed_km_per_ms * margin_ms / 2.0
