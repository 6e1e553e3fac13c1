"""Shared spindle queues: FIFO frontier service and accounting."""

import pytest

from repro.errors import SimulationError
from repro.netsim.resources import SpindleQueue


class TestAcquire:
    def test_idle_spindle_grants_immediately(self):
        spindle = SpindleQueue("s0")
        assert spindle.acquire(100.0, 13.0) == 0.0
        assert spindle.free_at_ms == 113.0

    def test_busy_spindle_queues_the_request(self):
        spindle = SpindleQueue("s0")
        spindle.acquire(0.0, 50.0)
        assert spindle.acquire(10.0, 5.0) == 40.0  # service starts at 50
        assert spindle.free_at_ms == 55.0

    def test_fifo_chain_is_back_to_back(self):
        spindle = SpindleQueue("s0")
        waits = []
        ends = []
        for _ in range(3):
            waits.append(spindle.acquire(0.0, 10.0))
            ends.append(spindle.free_at_ms)
        assert waits == [0.0, 10.0, 20.0]
        assert ends == [10.0, 20.0, 30.0]

    def test_gap_leaves_spindle_idle_not_negative(self):
        """An arrival after the frontier never earns credit."""
        spindle = SpindleQueue("s0")
        spindle.acquire(0.0, 10.0)
        assert spindle.acquire(100.0, 10.0) == 0.0
        assert spindle.free_at_ms == 110.0  # service started at 100

    def test_zero_service_request_allowed(self):
        spindle = SpindleQueue("s0")
        assert spindle.acquire(5.0, 0.0) == 0.0
        assert spindle.free_at_ms == 5.0

    def test_negative_inputs_rejected(self):
        spindle = SpindleQueue("s0")
        with pytest.raises(SimulationError):
            spindle.acquire(-1.0, 5.0)
        with pytest.raises(SimulationError):
            spindle.acquire(1.0, -5.0)


class TestAccounting:
    def test_busy_wait_and_peak_tracked(self):
        spindle = SpindleQueue("s0")
        spindle.acquire(0.0, 10.0)   # no wait
        spindle.acquire(0.0, 10.0)   # waits 10
        spindle.acquire(0.0, 10.0)   # waits 20
        assert spindle.busy_ms == 30.0
        assert spindle.wait_ms == 30.0
        assert spindle.peak_wait_ms == 20.0
        assert spindle.n_requests == 3
        assert spindle.n_waited == 2

    def test_reset_peak_starts_a_fresh_window(self):
        """Sums are windowed by delta; the max needs an explicit reset."""
        spindle = SpindleQueue("s0")
        spindle.acquire(0.0, 10.0)
        spindle.acquire(0.0, 10.0)  # waits 10
        assert spindle.peak_wait_ms == 10.0
        spindle.reset_peak()
        assert spindle.peak_wait_ms == 0.0
        spindle.acquire(18.0, 1.0)  # waits 2: the new window's peak
        assert spindle.peak_wait_ms == 2.0
        # Cumulative counters are untouched by the reset.
        assert spindle.wait_ms == 12.0
        assert spindle.n_requests == 3
