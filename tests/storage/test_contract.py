"""StorageProvider contract: one suite run against every medium."""

import errno
import os
import shutil

import pytest

from repro.cloud.provider import DataCentre
from repro.crypto.rng import DeterministicRNG
from repro.errors import (
    BlockNotFoundError,
    ConfigurationError,
    StorageUnavailableError,
)
from repro.geo.coords import GeoPoint
from repro.por.file_format import EncodedFile, Segment
from repro.por.parameters import TEST_PARAMS
from repro.por.setup import PORKeys, setup_file
from repro.service import ProviderRegistry
from repro.storage import contract
from repro.storage.contract import (
    InMemoryStorage,
    MAX_FILE_ID_BYTES,
    OnDiskStorage,
    SimulatedHDDStorage,
    StorageProvider,
)
from repro.storage.hdd import HDDModel, IBM_36Z15
from repro.storage.server import StorageServer

BRISBANE = GeoPoint(-27.4698, 153.0251, "Brisbane")


@pytest.fixture(scope="module")
def encoded():
    """One encoded container, built once: tests never mutate it."""
    keys = PORKeys.derive(b"master-key-0123456789abcdef-fixture")
    data = DeterministicRNG("contract-data").random_bytes(20_000)
    return setup_file(data, keys, b"contract-file", TEST_PARAMS)


def relabel(encoded, file_id):
    """The same segments filed under another id."""
    return EncodedFile(
        file_id=file_id,
        params=encoded.params,
        segments=encoded.segments,
        original_length=encoded.original_length,
        n_data_blocks=encoded.n_data_blocks,
    )


MEDIA = {
    "memory": lambda name, root: InMemoryStorage(name),
    "disk": lambda name, root: OnDiskStorage(name, str(root / name)),
    "hdd": lambda name, root: SimulatedHDDStorage(
        name, server=StorageServer()
    ),
    "datacentre": lambda name, root: DataCentre(name, BRISBANE),
}


@pytest.fixture(params=sorted(MEDIA))
def backend(request, tmp_path):
    """A fresh, empty backend of each medium (its own test id)."""
    return MEDIA[request.param]("backend", tmp_path)


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
    def test_exists_and_lookup(self, backend, encoded):
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

    def test_missing_file_and_segment_raise(self, backend, encoded):
        backend.put_file(encoded)
        with pytest.raises(BlockNotFoundError):
            backend.lookup(b"ghost", 0)
        with pytest.raises(BlockNotFoundError):
            backend.lookup(encoded.file_id, encoded.n_segments)
        assert backend.n_lookups == 0

    def test_duplicate_put_rejected(self, backend, encoded):
        backend.put_file(encoded)
        with pytest.raises(ConfigurationError):
            backend.put_file(encoded)

    @pytest.mark.parametrize(
        "bad", [b"", b"x" * (MAX_FILE_ID_BYTES + 1)], ids=["empty", "oversized"]
    )
    def test_put_validates_the_file_id(self, backend, encoded, bad):
        with pytest.raises(ConfigurationError):
            backend.put_file(relabel(encoded, bad))
        assert backend.file_ids() == []

    def test_delete_file(self, backend, encoded):
        backend.put_file(encoded)
        backend.delete_file(encoded.file_id)
        assert not backend.exists(encoded.file_id)
        assert backend.file_ids() == []
        with pytest.raises(BlockNotFoundError):
            backend.lookup(encoded.file_id, 0)
        with pytest.raises(BlockNotFoundError):
            backend.delete_file(encoded.file_id)

    def test_file_ids(self, backend, encoded):
        backend.put_file(encoded)
        assert backend.file_ids() == [encoded.file_id]

    def test_handle_request_serve_shape(self, backend, encoded):
        """The CloudProvider serve shape the audit loop relies on."""
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

    def test_container_under_another_name_fails_over(self, encoded, tmp_path):
        """A container filed under another file's name is corrupt.

        Serving it would hand file-a's segments to a file-b audit, and
        the verdict would blame the provider; refusing it as
        unavailable lets the registry fail over instead.
        """
        root = tmp_path / "mislabeled"
        OnDiskStorage("writer", str(root)).put_file(encoded)
        other = relabel(encoded, b"file-b")
        shutil.copy(
            root / (encoded.file_id.hex() + ".gpf"),
            root / (other.file_id.hex() + ".gpf"),
        )
        backend = OnDiskStorage("disk", str(root))
        for _ in range(2):  # a retry must not get past the check either
            with pytest.raises(StorageUnavailableError):
                backend.lookup(other.file_id, 0)

        registry = ProviderRegistry()
        registry.add(OnDiskStorage("disk", str(root)), fallbacks=("ram",))
        ram = InMemoryStorage("ram")
        ram.put_file(other)
        registry.add(ram)
        result = registry.handle_request(other.file_id, 0)
        assert result.served_by == "ram"
        assert result.segment == other.segments[0]
        assert registry.status("disk").n_failures == 1

    def test_foreign_files_ignored(self, encoded, tmp_path):
        root = tmp_path / "mixed"
        backend = OnDiskStorage("disk", str(root))
        backend.put_file(encoded)
        (root / "README.txt").write_text("not a container")
        (root / "zz.gpf").write_bytes(b"")  # non-hex stem
        # Stems bytes.fromhex accepts but no file id maps back to.
        for name in (".gpf", "AB.gpf", "ab cd.gpf"):
            (root / name).write_bytes(b"")
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
        backend = SimulatedHDDStorage("hdd", server=StorageServer())
        backend.put_file(encoded)
        reference = StorageServer()
        reference.store.put_file(encoded)
        expected = reference.lookup(encoded.file_id, 0, "reference")
        result = backend.lookup(encoded.file_id, 0)
        assert result.elapsed_ms == expected.elapsed_ms
        assert result.elapsed_ms > 0.0

    def test_views_share_one_server(self, encoded):
        server = StorageServer()
        first = SimulatedHDDStorage("first", server=server)
        second = SimulatedHDDStorage("second", server=server)
        first.put_file(encoded)
        assert second.exists(encoded.file_id)
        assert second.lookup(encoded.file_id, 0).served_by == "second"
        assert server.n_lookups == 1


class TestDataCentre:
    def test_lookup_charges_site_disk_and_names_the_site(self, encoded):
        site = DataCentre("syd", BRISBANE, disk=IBM_36Z15)
        site.put_file(encoded)
        result = site.lookup(encoded.file_id, 0)
        assert result.served_by == "syd"
        assert result.elapsed_ms == HDDModel(IBM_36Z15).lookup_ms(
            result.segment.size_bytes
        )
        assert site.server.total_disk_ms == result.elapsed_ms


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
