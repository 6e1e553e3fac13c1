"""StorageProvider contract: validate / exists / lookup across backends."""

import errno
import os

import pytest

from repro.errors import (
    BlockNotFoundError,
    ConfigurationError,
    StorageUnavailableError,
)
from repro.por.file_format import Segment
from repro.por.parameters import TEST_PARAMS
from repro.por.setup import setup_file
from repro.storage import contract
from repro.storage.contract import (
    InMemoryStorage,
    MAX_FILE_ID_BYTES,
    OnDiskStorage,
    SimulatedHDDStorage,
    StorageProvider,
)
from repro.storage.server import StorageServer

# Every test here pays a full POR setup in its fixtures: slow lane.
pytestmark = pytest.mark.slow


@pytest.fixture
def encoded(keys, sample_data):
    return setup_file(sample_data, keys, b"contract-file", TEST_PARAMS)


def all_backends(tmp_path, name="backend"):
    return [
        InMemoryStorage(name),
        OnDiskStorage(name, str(tmp_path / name)),
        SimulatedHDDStorage(name),
    ]


class TestValidate:
    @pytest.mark.parametrize(
        "bad", ["not-bytes", b"", 42, None, b"x" * (MAX_FILE_ID_BYTES + 1)]
    )
    def test_rejects_bad_ids(self, bad):
        backend = InMemoryStorage()
        with pytest.raises(ConfigurationError):
            backend.validate(bad)

    def test_valid_id_round_trips(self):
        backend = InMemoryStorage()
        assert backend.validate(b"fine") == b"fine"

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            InMemoryStorage("")


class TestContractAcrossBackends:
    def test_exists_and_lookup(self, encoded, tmp_path):
        for backend in all_backends(tmp_path):
            assert not backend.exists(encoded.file_id)
            backend.put_file(encoded)
            assert backend.exists(encoded.file_id)
            assert backend.exists(encoded.file_id, 0)
            assert not backend.exists(encoded.file_id, encoded.n_segments)
            assert not backend.exists(b"ghost")
            result = backend.lookup(encoded.file_id, 3)
            assert result.segment == encoded.segments[3]
            assert result.served_by == backend.name
            assert result.elapsed_ms >= 0.0
            assert backend.n_lookups == 1

    def test_missing_file_and_segment_raise(self, encoded, tmp_path):
        for backend in all_backends(tmp_path):
            backend.put_file(encoded)
            with pytest.raises(BlockNotFoundError):
                backend.lookup(b"ghost", 0)
            with pytest.raises(BlockNotFoundError):
                backend.lookup(encoded.file_id, encoded.n_segments)

    def test_duplicate_put_rejected(self, encoded, tmp_path):
        for backend in all_backends(tmp_path):
            backend.put_file(encoded)
            with pytest.raises(ConfigurationError):
                backend.put_file(encoded)

    def test_delete_file(self, encoded, tmp_path):
        for backend in all_backends(tmp_path):
            backend.put_file(encoded)
            backend.delete_file(encoded.file_id)
            assert not backend.exists(encoded.file_id)
            assert backend.file_ids() == []
            with pytest.raises(BlockNotFoundError):
                backend.delete_file(encoded.file_id)

    def test_file_ids(self, encoded, tmp_path):
        for backend in all_backends(tmp_path):
            backend.put_file(encoded)
            assert backend.file_ids() == [encoded.file_id]

    def test_handle_request_serve_shape(self, encoded, tmp_path):
        """The CloudProvider duck type the audit loop relies on."""
        for backend in all_backends(tmp_path):
            backend.put_file(encoded)
            serve = backend.handle_request(encoded.file_id, 1)
            assert serve.segment == encoded.segments[1]
            assert serve.elapsed_ms >= 0.0
            with pytest.raises(ConfigurationError):
                backend.handle_request("not-bytes", 0)


class TestInMemoryStorage:
    def test_lookup_free_and_memoized(self, encoded):
        backend = InMemoryStorage()
        backend.put_file(encoded)
        first = backend.lookup(encoded.file_id, 0)
        assert first.elapsed_ms == 0.0
        assert backend.lookup(encoded.file_id, 0) is first

    def test_overwrite_invalidates_memo(self, encoded):
        backend = InMemoryStorage()
        backend.put_file(encoded)
        original = backend.lookup(encoded.file_id, 0)
        tampered = Segment(
            index=0,
            payload=bytes(len(original.segment.payload)),
            tag=original.segment.tag,
        )
        backend.overwrite_segment(encoded.file_id, tampered)
        assert backend.lookup(encoded.file_id, 0).segment == tampered

    def test_overwrite_unknown_rejected(self, encoded):
        backend = InMemoryStorage()
        with pytest.raises(BlockNotFoundError):
            backend.overwrite_segment(encoded.file_id, encoded.segments[0])


class TestOnDiskStorage:
    def test_survives_reopen(self, encoded, tmp_path):
        root = str(tmp_path / "persist")
        OnDiskStorage("writer", root).put_file(encoded)
        reader = OnDiskStorage("reader", root)
        assert reader.exists(encoded.file_id)
        assert reader.file_ids() == [encoded.file_id]
        result = reader.lookup(encoded.file_id, 2)
        assert result.segment == encoded.segments[2]

    def test_corrupt_container_fails_closed(self, encoded, tmp_path):
        root = tmp_path / "corrupt"
        backend = OnDiskStorage("disk", str(root))
        backend.put_file(encoded)
        path = root / (encoded.file_id.hex() + ".gpf")
        path.write_bytes(b"\x00\x01garbage")
        fresh = OnDiskStorage("disk", str(root))
        with pytest.raises(StorageUnavailableError):
            fresh.lookup(encoded.file_id, 0)

    def test_foreign_files_ignored(self, encoded, tmp_path):
        root = tmp_path / "mixed"
        backend = OnDiskStorage("disk", str(root))
        backend.put_file(encoded)
        (root / "README.txt").write_text("not a container")
        (root / "zz.gpf").write_bytes(b"")  # non-hex stem
        assert backend.file_ids() == [encoded.file_id]

    def test_failed_write_leaves_nothing_behind(
        self, encoded, tmp_path, monkeypatch
    ):
        class FullDisk:
            """A writable handle on a disk that is out of space."""

            def __init__(self, path, mode):
                self._handle = open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._handle.close()

            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        root = tmp_path / "full"
        backend = OnDiskStorage("disk", str(root))
        monkeypatch.setattr(contract, "open", FullDisk, raising=False)
        with pytest.raises(StorageUnavailableError):
            backend.put_file(encoded)
        monkeypatch.undo()
        assert os.listdir(root) == []
        assert not OnDiskStorage("fresh", str(root)).exists(encoded.file_id)
        backend.put_file(encoded)  # the retry is not "already stored"
        reader = OnDiskStorage("reader", str(root))
        assert reader.file_ids() == [encoded.file_id]
        for segment in encoded.segments:
            assert reader.lookup(encoded.file_id, segment.index).segment == segment


class TestSimulatedHDDStorage:
    def test_charges_server_disk_time(self, encoded):
        backend = SimulatedHDDStorage("hdd")
        backend.put_file(encoded)
        reference = StorageServer()
        reference.store.put_file(encoded)
        expected = reference.lookup(encoded.file_id, 0)
        result = backend.lookup(encoded.file_id, 0)
        assert result.elapsed_ms == expected.elapsed_ms
        assert result.elapsed_ms > 0.0


class TestAuditOverContract:
    def test_full_audit_against_in_memory_backend(self):
        """A registry-selected RAM backend can serve a whole audit."""
        from tests.conftest import build_session

        session, file_id, _ = build_session("contract-audit")
        container = session.provider.home_of(file_id).server.store.file_meta(
            file_id
        )
        backend = InMemoryStorage("ram")
        backend.put_file(container)
        outcome = session.tpa.audit(
            file_id, session.verifier, backend, k=5
        )
        assert outcome.verdict.accepted

    def test_abstract_base_cannot_instantiate(self):
        with pytest.raises(TypeError):
            StorageProvider("abstract")
