"""Payload-size effects on a LAN round trip.

GeoProof's rounds carry real segments (660-bit static, kB-scale
dynamic), not single bits; the LAN model's serialisation term must show
up in the round-trip time or the budget calibration would be fiction.
"""

import pytest

from repro.netsim.latency import LANModel


class TestPayloadTiming:
    def make_lan(self, bandwidth_mbps=100.0):
        return LANModel(
            n_switches=0,
            switch_delay_ms=0.0,
            jitter_ms=0.0,
            bandwidth_mbps=bandwidth_mbps,
        )

    def test_bigger_payload_slower_round(self):
        lan = self.make_lan()
        assert lan.rtt_ms(1.0, 8192) > lan.rtt_ms(1.0, 64)

    def test_serialisation_term_exact(self):
        # 100 Mb/s: 1250 bytes = 0.1 ms per direction.
        lan = self.make_lan(bandwidth_mbps=100.0)
        assert lan.rtt_ms(1.0, 1250) - lan.rtt_ms(1.0, 0) == pytest.approx(0.2, abs=1e-9)

    def test_faster_link_cheaper_payload(self):
        slow = self.make_lan(bandwidth_mbps=100.0)
        fast = self.make_lan(bandwidth_mbps=10_000.0)
        assert fast.rtt_ms(1.0, 4096) < slow.rtt_ms(1.0, 4096)

    def test_payload_term_motivates_segment_size_choice(self):
        """The paper's v = 5 (660-bit) segments cost ~13 us on gigabit
        LAN -- negligible against 13 ms of disk; but v = 1000 segments
        would cost ~1.3 ms, eating half the LAN budget."""
        lan = LANModel(n_switches=0, switch_delay_ms=0.0, jitter_ms=0.0)
        v5_bytes = 83  # 660 bits
        v1000_bytes = 16_003
        v5_cost = lan.one_way_ms(0.0, v5_bytes)
        v1000_cost = lan.one_way_ms(0.0, v1000_bytes)
        assert v5_cost < 0.001
        assert v1000_cost > 0.1
