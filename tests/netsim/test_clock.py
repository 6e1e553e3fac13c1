"""Simulated clock semantics."""

import math

import pytest

from repro.errors import ClockError
from repro.netsim.clock import SimClock
from repro.netsim.lanes import LaneClock

NON_FINITE = [math.nan, math.inf, -math.inf]
CLOCKS = [SimClock, lambda start=0.0: LaneClock("lane", start)]


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ms() == 0.0

    def test_custom_start(self):
        assert SimClock(100.0).now_ms() == 100.0

    def test_rejects_negative_start(self):
        with pytest.raises(ClockError):
            SimClock(-1.0)

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(2.5) == 2.5
        assert clock.advance(0.5) == 3.0

    def test_zero_advance_allowed(self):
        clock = SimClock()
        clock.advance(0.0)
        assert clock.now_ms() == 0.0

    def test_rejects_negative_advance(self):
        with pytest.raises(ClockError):
            SimClock().advance(-0.1)

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now_ms() == 10.0

    def test_advance_to_rejects_past(self):
        clock = SimClock(5.0)
        with pytest.raises(ClockError):
            clock.advance_to(4.0)


@pytest.mark.parametrize("make", CLOCKS, ids=["SimClock", "LaneClock"])
@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
class TestFiniteSteps:
    """A provider's NaN or infinite ``elapsed_ms`` must never reach the clock."""

    def test_start_refused(self, make, value):
        with pytest.raises(ClockError):
            make(value)

    def test_advance_refused_and_time_kept(self, make, value):
        clock = make(2.0)
        with pytest.raises(ClockError):
            clock.advance(value)
        assert clock.now_ms() == 2.0

    def test_advance_to_refused_and_time_kept(self, make, value):
        clock = make(2.0)
        with pytest.raises(ClockError):
            clock.advance_to(value)
        assert clock.now_ms() == 2.0
