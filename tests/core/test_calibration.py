"""Delta-t_max calibration and relay-distance bounds (Section V)."""

import pytest

from repro.core.calibration import (
    calibrate_rtt_max,
    margin_headroom_km,
    relay_distance_bound_km,
)
from repro.errors import ConfigurationError
from repro.storage.hdd import HITACHI_DK23DA, IBM_36Z15


class TestCalibration:
    def test_paper_budget(self):
        """Delta-t_max = 3 + 13.1055 ~= 16 ms (Section V-C)."""
        budget = calibrate_rtt_max()
        assert budget.lookup_ms == pytest.approx(13.1055, abs=1e-3)
        assert budget.rtt_max_ms == pytest.approx(16.1055, abs=1e-3)

    def test_describe_mentions_components(self):
        text = calibrate_rtt_max(margin_ms=1.0).describe()
        assert "LAN" in text and "lookup" in text and "margin" in text

    def test_margin_widens_budget(self):
        assert (
            calibrate_rtt_max(margin_ms=2.0).rtt_max_ms
            == calibrate_rtt_max().rtt_max_ms + 2.0
        )

    def test_disk_choice_matters(self):
        slow = calibrate_rtt_max(disk=HITACHI_DK23DA)
        fast = calibrate_rtt_max(disk=IBM_36Z15)
        assert slow.rtt_max_ms > fast.rtt_max_ms

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            calibrate_rtt_max(margin_ms=-1.0)


class TestRelayBound:
    def test_paper_convention_360km(self):
        """The paper's Section V-C arithmetic: 4/9*300*5.406/2 ~= 360 km."""
        bound = relay_distance_bound_km(paper_convention=True)
        assert bound == pytest.approx(360.4, abs=0.5)

    def test_tight_bound_accounts_for_adversary_disk(self):
        budget = calibrate_rtt_max()
        bound = relay_distance_bound_km(budget.rtt_max_ms)
        # slack = 16.1055 - 5.406... ms -> ~713 km at 4/9 c.
        assert 700 < bound < 730

    def test_no_slack_no_distance(self):
        assert relay_distance_bound_km(5.0) == pytest.approx(0.0, abs=1.0)

    def test_requires_rtt_unless_paper_mode(self):
        with pytest.raises(ConfigurationError):
            relay_distance_bound_km()


class TestMarginHeadroom:
    def test_1ms_margin_is_67km(self):
        # 4/9 c * 1 ms / 2 = 66.7 km of extra relay room.
        assert margin_headroom_km(1.0) == pytest.approx(66.67, abs=0.1)

    def test_zero_margin(self):
        assert margin_headroom_km(0.0) == 0.0
