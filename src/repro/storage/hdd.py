"""Hard-disk look-up latency: seek + rotation + transfer.

Section V-D of the paper:

    Delta-t_L = Delta-t_seek + Delta-t_rotate + Delta-t_transfer

with Table I giving five disks:

    =============  ======  ===========  ============  ==========
    Disk           RPM     avg seek ms  avg rotate ms  IDR Mb/s
    =============  ======  ===========  ============  ==========
    IBM 36Z15      15,000  3.4          2.0            55
    IBM 73LZX      10,000  4.9          3.0            53
    WD 2500JD      7,200   8.9          4.2            93.5
    IBM 40GNX      5,400   12.0         5.5            25
    Hitachi        4,200   13.0         7.1            ~34.7
    DK23DA
    =============  ======  ===========  ============  ==========

The paper's worked examples use *media transfer rates* of 748 (WD
2500JD) and 647 (IBM 36Z15) Mb/s for the 512-byte transfer term, giving
Delta-t_L = 13.1055 ms and 5.406 ms respectively.  :class:`HDDSpec`
carries both rates; :meth:`HDDModel.lookup_ms` reproduces the paper's
arithmetic exactly, and :meth:`HDDModel.sample_lookup_ms` adds the
stochastic spread a real disk shows (uniform seek around the average,
uniform rotational wait in [0, full revolution]).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError
from repro.util.validation import check_positive


@dataclass(frozen=True)
class HDDSpec:
    """Datasheet parameters of one disk model.

    Attributes
    ----------
    name:
        Catalogue name (as in Table I).
    rpm:
        Spindle speed.
    avg_seek_ms:
        Average seek time.
    avg_rotate_ms:
        Average rotational latency (half a revolution).
    internal_data_rate_mbps:
        IDR in megabits/s (Table I's comparison column).
    media_transfer_rate_mbps:
        Sustained media rate used for the transfer term in the paper's
        worked examples (falls back to IDR when the paper gives none).
    """

    name: str
    rpm: int
    avg_seek_ms: float
    avg_rotate_ms: float
    internal_data_rate_mbps: float
    media_transfer_rate_mbps: float | None = None

    def __post_init__(self) -> None:
        check_positive("rpm", self.rpm)
        check_positive("avg_seek_ms", self.avg_seek_ms)
        check_positive("avg_rotate_ms", self.avg_rotate_ms)
        check_positive("internal_data_rate_mbps", self.internal_data_rate_mbps)
        if self.media_transfer_rate_mbps is not None:
            check_positive("media_transfer_rate_mbps", self.media_transfer_rate_mbps)

    @property
    def transfer_rate_mbps(self) -> float:
        """Rate used for the transfer term (media rate, else IDR)."""
        return self.media_transfer_rate_mbps or self.internal_data_rate_mbps

    @property
    def full_rotation_ms(self) -> float:
        """One full platter revolution in ms (60,000 / RPM)."""
        return 60_000.0 / self.rpm


# Table I, plus the media transfer rates from the paper's Section V-D text.
IBM_36Z15 = HDDSpec("IBM 36Z15", 15_000, 3.4, 2.0, 55.0, 647.0)
IBM_73LZX = HDDSpec("IBM 73LZX", 10_000, 4.9, 3.0, 53.0)
WD_2500JD = HDDSpec("WD 2500JD", 7_200, 8.9, 4.2, 93.5, 748.0)
IBM_40GNX = HDDSpec("IBM 40GNX", 5_400, 12.0, 5.5, 25.0)
HITACHI_DK23DA = HDDSpec("Hitachi DK23DA", 4_200, 13.0, 7.1, 34.7)

#: The five disks of Table I, fastest spindle first.
DISK_CATALOGUE: list[HDDSpec] = [
    IBM_36Z15,
    IBM_73LZX,
    WD_2500JD,
    IBM_40GNX,
    HITACHI_DK23DA,
]


class HDDModel:
    """Look-up latency model for one disk."""

    def __init__(self, spec: HDDSpec) -> None:
        self.spec = spec

    def transfer_ms(self, n_bytes: int) -> float:
        """Transfer term: ``bytes * 8 / (rate_mbps * 1000)`` ms.

        The paper's example: 512 bytes at 748 Mb/s ->
        512*8 / 748e3 = 5.48e-3 ms.
        """
        if n_bytes < 0:
            raise ConfigurationError(f"n_bytes must be >= 0, got {n_bytes}")
        return (n_bytes * 8.0) / (self.spec.transfer_rate_mbps * 1000.0)

    def lookup_ms(self, n_bytes: int = 512) -> float:
        """Deterministic average look-up latency (the paper's formula).

        WD 2500JD at 512 bytes -> 13.1055 ms; IBM 36Z15 -> 5.406 ms.
        """
        return (
            self.spec.avg_seek_ms
            + self.spec.avg_rotate_ms
            + self.transfer_ms(n_bytes)
        )

    def sample_lookup_ms(
        self, rng: DeterministicRNG, n_bytes: int = 512
    ) -> float:
        """One stochastic look-up.

        Seek is uniform in [0.2, 1.8] x average (short seeks dominate
        but full-stroke seeks happen); rotational wait is uniform in
        [0, full revolution] -- its mean is exactly the datasheet's
        average rotational latency (half a revolution).
        """
        seek = self.spec.avg_seek_ms * rng.uniform(0.2, 1.8)
        rotate = rng.uniform(0.0, self.spec.full_rotation_ms)
        return seek + rotate + self.transfer_ms(n_bytes)


def fastest_disk() -> HDDSpec:
    """The catalogue disk with the lowest average look-up (IBM 36Z15).

    This is the paper's worst-case adversary hardware: "assume that the
    remote data centres run high performance hard disks with very low
    look up time".
    """
    return min(DISK_CATALOGUE, key=lambda spec: HDDModel(spec).lookup_ms())
