"""Storage server: lookup timing, shared spindles and serve windows."""

import pytest

from repro.por.parameters import TEST_PARAMS
from repro.por.setup import setup_file
from repro.storage.hdd import HDDModel, IBM_36Z15, WD_2500JD
from repro.storage.server import StorageServer


# Every test here pays a full POR setup in its fixtures: slow lane.
pytestmark = pytest.mark.slow

@pytest.fixture
def loaded_server(keys, sample_data):
    server = StorageServer(WD_2500JD)
    encoded = setup_file(sample_data, keys, b"srv", TEST_PARAMS)
    server.store.put_file(encoded)
    return server, encoded


class TestDeterministicLookup:
    def test_charges_datasheet_average(self, loaded_server):
        server, _ = loaded_server
        result = server.lookup(b"srv", 0)
        expected = HDDModel(WD_2500JD).lookup_ms(result.segment.size_bytes)
        assert result.elapsed_ms == pytest.approx(expected)

    def test_fast_disk_is_faster(self, keys, sample_data):
        slow = StorageServer(WD_2500JD)
        fast = StorageServer(IBM_36Z15)
        encoded = setup_file(sample_data, keys, b"srv", TEST_PARAMS)
        slow.store.put_file(encoded)
        fast.store.put_file(encoded)
        assert fast.lookup(b"srv", 0).elapsed_ms < slow.lookup(b"srv", 0).elapsed_ms

    def test_statistics(self, loaded_server):
        server, _ = loaded_server
        for i in range(5):
            server.lookup(b"srv", i)
        assert server.n_lookups == 5
        assert server.total_disk_ms > 0


class TestSharedSpindleMode:
    """The queued shared-resource mode (see the module design note)."""

    def make_shared(self, keys, sample_data, n_sites=2):
        """``n_sites`` servers sharing one spindle, one file each."""
        from repro.netsim.resources import SpindleQueue

        spindle = SpindleQueue("shared-0")
        servers = []
        for i in range(n_sites):
            server = StorageServer(WD_2500JD, spindle=spindle)
            encoded = setup_file(sample_data, keys, f"f{i}".encode(), TEST_PARAMS)
            server.store.put_file(encoded)
            servers.append(server)
        return spindle, servers

    def test_unbound_clock_serves_unqueued(self, keys, sample_data):
        """Queued mode needs arrival times; without a clock, legacy."""
        spindle, (server, _) = self.make_shared(keys, sample_data)
        result = server.lookup(b"f0", 0)
        assert result.wait_ms == 0.0
        assert spindle.n_requests == 0

    def test_dedicated_requester_never_waits(self, keys, sample_data):
        from repro.netsim.clock import SimClock

        spindle, (server, _) = self.make_shared(keys, sample_data)
        clock = SimClock()
        with server.timed_with(clock):
            for i in range(4):
                result = server.lookup(b"f0", i)
                clock.advance(result.elapsed_ms)  # the protocol engine
                assert result.wait_ms == 0.0
        assert spindle.n_requests == 4
        assert spindle.wait_ms == 0.0

    def test_contending_requesters_queue(self, keys, sample_data):
        """A lane behind the frontier pays the wait in elapsed_ms."""
        from repro.netsim.clock import SimClock

        spindle, (a, b) = self.make_shared(keys, sample_data)
        fast, slow = SimClock(), SimClock()
        with a.timed_with(fast):
            first = a.lookup(b"f0", 0)
            fast.advance(first.elapsed_ms)
        with b.timed_with(slow):  # still at t=0: queues behind a
            second = b.lookup(b"f1", 0)
        assert second.wait_ms == pytest.approx(first.elapsed_ms)
        assert second.elapsed_ms == pytest.approx(
            second.wait_ms + HDDModel(WD_2500JD).lookup_ms(second.segment.size_bytes)
        )
        assert b.total_wait_ms == second.wait_ms

    def test_wait_classified_on_lane_clock(self, keys, sample_data):
        from repro.netsim.lanes import LaneClock

        spindle, (a, b) = self.make_shared(keys, sample_data)
        spindle.acquire(0.0, 100.0)  # preload the frontier
        lane = LaneClock("lane")
        with b.timed_with(lane):
            result = b.lookup(b"f1", 0)
        assert result.wait_ms == pytest.approx(100.0)
        assert lane.waiting_ms == pytest.approx(100.0)

    def test_serve_window_splits_wait_from_disk(self, keys, sample_data):
        from repro.netsim.clock import SimClock

        spindle, (a, b) = self.make_shared(keys, sample_data)
        spindle.acquire(0.0, 50.0)
        clock = SimClock()
        with b.timed_with(clock), b.serve_window() as window:
            result = b.lookup(b"f1", 0)
        assert window.wait_ms == pytest.approx(50.0)
        assert window.disk_ms == HDDModel(WD_2500JD).lookup_ms(
            result.segment.size_bytes
        )
        assert result.elapsed_ms == window.wait_ms + window.disk_ms
