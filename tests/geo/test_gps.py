"""GPS receiver and spoofing tests."""

from repro.geo.coords import GeoPoint
from repro.geo.gps import GPSReceiver, GPSSpoofer


class TestHonestFix:
    def test_noise_free_fix_exact(self, brisbane):
        receiver = GPSReceiver(brisbane)
        fix = receiver.read_fix()
        assert fix.position == brisbane
        assert not fix.spoofed


class TestSpoofing:
    def test_spoofer_overrides_fix(self, brisbane):
        receiver = GPSReceiver(brisbane)
        fake = GeoPoint(1.35, 103.82, "Singapore")
        receiver.attach_spoofer(GPSSpoofer(fake))
        fix = receiver.read_fix()
        assert fix.position == fake
        assert fix.spoofed

    def test_spoofer_toggle(self, brisbane):
        receiver = GPSReceiver(brisbane)
        spoofer = GPSSpoofer(GeoPoint(0, 0))
        receiver.attach_spoofer(spoofer)
        spoofer.active = False
        assert receiver.read_fix().position == brisbane
        spoofer.active = True
        assert receiver.read_fix().spoofed
