"""SLA policy and its timing-budget arithmetic."""

import math

import pytest

from repro.cloud.sla import SLAPolicy
from repro.errors import ConfigurationError
from repro.geo.coords import GeoPoint
from repro.geo.regions import CircularRegion
from repro.storage.hdd import IBM_36Z15, WD_2500JD


@pytest.fixture
def region(brisbane):
    return CircularRegion(brisbane, 100.0)


class TestSLAPolicy:
    def test_paper_budget(self, region):
        """Default SLA reproduces the paper's Delta-t_max ~ 16 ms."""
        sla = SLAPolicy(region=region)
        assert sla.lookup_budget_ms == pytest.approx(13.1055, abs=0.01)
        assert sla.rtt_max_ms == pytest.approx(16.1055, abs=0.01)

    def test_fast_disk_tightens_budget(self, region):
        slow = SLAPolicy(region=region, disk=WD_2500JD)
        fast = SLAPolicy(region=region, disk=IBM_36Z15)
        assert fast.rtt_max_ms < slow.rtt_max_ms

    def test_margin_added(self, region):
        base = SLAPolicy(region=region)
        padded = SLAPolicy(region=region, margin_ms=2.0)
        assert padded.rtt_max_ms == pytest.approx(base.rtt_max_ms + 2.0)

    def test_segment_size_term(self, region):
        small = SLAPolicy(region=region, segment_bytes=512)
        large = SLAPolicy(region=region, segment_bytes=8192)
        assert large.rtt_max_ms > small.rtt_max_ms

    def test_validation(self, region):
        with pytest.raises(ConfigurationError):
            SLAPolicy(region=region, lan_rtt_budget_ms=0.0)
        with pytest.raises(ConfigurationError):
            SLAPolicy(region=region, min_rounds=0)
        with pytest.raises(ConfigurationError):
            SLAPolicy(region=region, segment_bytes=0)
        # An infinite margin would make a budget no round can miss.
        with pytest.raises(ConfigurationError, match="margin_ms"):
            SLAPolicy(region=region, margin_ms=math.inf)
