"""Simulated GPS receiver, with the spoofing attack the paper discusses.

"We assume that the verifier V is GPS enabled, and we need to rely on
the GPS position of this device.  However, the GPS signal may be
manipulated by the provider ... GPS satellite simulators can spoof the
GPS signal by producing a fake satellite radio signal that is much
stronger than the normal GPS signal."

:class:`GPSReceiver` reports its true position.  :class:`GPSSpoofer`
overrides the reported fix, modelling a provider running a satellite
simulator next to the verifier; the TPA's countermeasure (landmark
triangulation of V) lives in :mod:`repro.geoloc` and is exercised in
the security benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geo.coords import GeoPoint


@dataclass
class GPSFix:
    """A position report: the fix plus quality metadata."""

    position: GeoPoint
    accuracy_m: float
    spoofed: bool = False  # ground-truth flag for experiment accounting


class GPSSpoofer:
    """A GPS satellite simulator broadcasting a fake position."""

    def __init__(self, fake_position: GeoPoint) -> None:
        self.fake_position = fake_position
        self.active = True


class GPSReceiver:
    """A GPS receiver attached to the verifier device.

    Parameters
    ----------
    true_position:
        Where the device physically is.

    Fixes are exact; each reports the 5 m 1-sigma accuracy of an
    open-sky consumer receiver.
    """

    accuracy_m = 5.0

    def __init__(self, true_position: GeoPoint) -> None:
        self.true_position = true_position
        self._spoofer: GPSSpoofer | None = None

    def attach_spoofer(self, spoofer: GPSSpoofer) -> None:
        """Place a satellite simulator next to this receiver.

        A stronger fake signal captures the receiver -- consumer GPS
        hardware locks onto the strongest correlation peak.
        """
        self._spoofer = spoofer

    def read_fix(self) -> GPSFix:
        """Return the current fix (spoofed if a simulator is active)."""
        if self._spoofer is not None and self._spoofer.active:
            return GPSFix(
                position=self._spoofer.fake_position,
                accuracy_m=self.accuracy_m,
                spoofed=True,
            )
        return GPSFix(
            position=self.true_position, accuracy_m=self.accuracy_m, spoofed=False
        )
