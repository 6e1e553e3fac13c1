"""Storage server: lookup timing and shared spindles."""

import contextlib

import pytest

from repro.netsim.clock import SimClock
from repro.netsim.resources import SpindleQueue
from repro.por.file_format import EncodedFile, Segment
from repro.por.parameters import TEST_PARAMS
from repro.por.setup import setup_file
from repro.storage.hdd import HDDModel, IBM_36Z15, WD_2500JD
from repro.storage.server import StorageServer


# Most tests here pay a full POR setup in their fixtures: slow lane.
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
        result = server.lookup(b"srv", 0, "site")
        expected = HDDModel(WD_2500JD).lookup_ms(result.segment.size_bytes)
        assert result.elapsed_ms == pytest.approx(expected)

    def test_fast_disk_is_faster(self, keys, sample_data):
        slow = StorageServer(WD_2500JD)
        fast = StorageServer(IBM_36Z15)
        encoded = setup_file(sample_data, keys, b"srv", TEST_PARAMS)
        slow.store.put_file(encoded)
        fast.store.put_file(encoded)
        assert (
            fast.lookup(b"srv", 0, "site").elapsed_ms
            < slow.lookup(b"srv", 0, "site").elapsed_ms
        )

    def test_statistics(self, loaded_server):
        """A queued server's lookups are counted by its spindle."""
        _, encoded = loaded_server
        spindle = SpindleQueue("s")
        server = StorageServer(WD_2500JD, spindle=spindle)
        server.store.put_file(encoded)
        clock = SimClock()
        elapsed = []
        with server.timed_with(clock):
            for i in range(5):
                elapsed.append(server.lookup(b"srv", i, "site").elapsed_ms)
                clock.advance(elapsed[-1])
        assert spindle.n_requests == 5
        assert spindle.busy_ms == sum(elapsed) > 0
        assert spindle.wait_ms == 0.0


class TestDiskTimePerSize:
    """Each lookup pays the datasheet time of its own segment's size,
    however often that size was served before."""

    @staticmethod
    def two_sizes(server):
        """One file of 100-byte and one of 1000-byte payloads."""
        for file_id, payload_bytes in ((b"small", 100), (b"large", 1000)):
            segments = [
                Segment(index=i, payload=bytes([i]) * payload_bytes, tag=b"tag")
                for i in range(3)
            ]
            server.store.put_file(EncodedFile(
                file_id, TEST_PARAMS, segments,
                original_length=3 * payload_bytes, n_data_blocks=3,
            ))

    @pytest.mark.parametrize("bound", [False, True])
    def test_each_size_pays_its_own_lookup_ms(self, bound):
        spindle = SpindleQueue("s")
        server = StorageServer(WD_2500JD, spindle=spindle)
        self.two_sizes(server)
        disk, clock = HDDModel(WD_2500JD), SimClock()
        elapsed = {}
        with server.timed_with(clock) if bound else contextlib.nullcontext():
            for file_id in (b"small", b"large") * 3:
                result = server.lookup(file_id, 1, "site")
                assert result.elapsed_ms == disk.lookup_ms(
                    result.segment.size_bytes
                )
                elapsed.setdefault(file_id, set()).add(result.elapsed_ms)
                clock.advance(result.elapsed_ms)
        assert len(elapsed[b"small"]) == len(elapsed[b"large"]) == 1
        assert elapsed[b"small"] != elapsed[b"large"]
        assert spindle.n_requests == (6 if bound else 0)


class TestSharedSpindleMode:
    """The queued shared-resource mode (see the module design note)."""

    def make_shared(self, keys, sample_data, n_sites=2):
        """``n_sites`` servers sharing one spindle, one file each."""
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
        result = server.lookup(b"f0", 0, "site")
        assert result.elapsed_ms == HDDModel(WD_2500JD).lookup_ms(
            result.segment.size_bytes
        )
        assert spindle.n_requests == 0

    def test_dedicated_requester_never_waits(self, keys, sample_data):
        spindle, (server, _) = self.make_shared(keys, sample_data)
        clock = SimClock()
        with server.timed_with(clock):
            for i in range(4):
                result = server.lookup(b"f0", i, "site")
                clock.advance(result.elapsed_ms)  # the protocol engine
                assert result.elapsed_ms == HDDModel(WD_2500JD).lookup_ms(
                    result.segment.size_bytes
                )
        assert spindle.n_requests == 4
        assert spindle.wait_ms == 0.0

    def test_contending_requesters_queue(self, keys, sample_data):
        """A lane behind the frontier pays the wait in elapsed_ms."""
        spindle, (a, b) = self.make_shared(keys, sample_data)
        fast, slow = SimClock(), SimClock()
        with a.timed_with(fast):
            first = a.lookup(b"f0", 0, "site")
            fast.advance(first.elapsed_ms)
        with b.timed_with(slow):  # still at t=0: queues behind a
            second = b.lookup(b"f1", 0, "site")
        assert spindle.wait_ms == pytest.approx(first.elapsed_ms)
        assert second.elapsed_ms == spindle.wait_ms + HDDModel(
            WD_2500JD
        ).lookup_ms(second.segment.size_bytes)

    def test_wait_classified_on_lane_clock(self, keys, sample_data):
        from repro.netsim.lanes import LaneClock

        spindle, (a, b) = self.make_shared(keys, sample_data)
        spindle.acquire(0.0, 100.0)  # preload the frontier
        lane = LaneClock("lane")
        with b.timed_with(lane):
            b.lookup(b"f1", 0, "site")
        assert spindle.wait_ms == pytest.approx(100.0)
        assert lane.waiting_ms == pytest.approx(100.0)

    def test_view_serves_the_server_record(self, keys, sample_data):
        """A disk view returns the server's record under its own name,
        queue wait included."""
        from repro.storage.contract import SimulatedHDDStorage

        spindle, (a, b) = self.make_shared(keys, sample_data)
        spindle.acquire(0.0, 40.0)
        view = SimulatedHDDStorage("view", server=b)
        with b.timed_with(SimClock()):
            result = view.lookup(b"f1", 0)
        assert result.served_by == "view"
        assert result.elapsed_ms == pytest.approx(
            40.0 + HDDModel(WD_2500JD).lookup_ms(result.segment.size_bytes)
        )
        # The preload and the view's one lookup, queued behind it.
        assert spindle.n_requests == 2
        assert spindle.wait_ms == pytest.approx(40.0)

    def test_spindle_splits_wait_from_disk(self, keys, sample_data):
        """Differences of the spindle's sums split a block of lookups
        into disk time and queue wait, as the fleet charges a batch."""
        spindle, (a, b) = self.make_shared(keys, sample_data)
        spindle.acquire(0.0, 50.0)
        disk_mark, wait_mark = spindle.busy_ms, spindle.wait_ms
        with b.timed_with(SimClock()):
            result = b.lookup(b"f1", 0, "site")
        wait_ms = spindle.wait_ms - wait_mark
        disk_ms = spindle.busy_ms - disk_mark
        assert wait_ms == 50.0
        assert disk_ms == pytest.approx(
            HDDModel(WD_2500JD).lookup_ms(result.segment.size_bytes)
        )
        assert result.elapsed_ms == pytest.approx(wait_ms + disk_ms)
