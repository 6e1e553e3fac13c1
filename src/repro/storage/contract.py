"""The one storage contract every segment medium implements.

The daemon's registry and the simulation's data centres serve segments
through the same small interface (the familiar cloud-provider shape: a
few abstract methods, defaults for the rest):

* :meth:`StorageProvider.validate` -- check a file id before it
  touches backend state (concrete; fails closed);
* ``exists``, ``lookup``, ``put_file``, ``delete_file`` and
  ``file_ids`` -- the abstract media operations;
* :meth:`StorageProvider.handle_request` -- the audit loop's serve
  (``validate`` then ``lookup``), a default every backend inherits.

Every served segment comes back as a :class:`ServeResult`: the segment
plus the simulated time the read took.  Errors split the way a
failover chain needs them: a :class:`~repro.errors.BlockNotFoundError`
is a data miss (surfaced, no health penalty), a
:class:`~repro.errors.StorageUnavailableError` means the medium cannot
serve right now (retried elsewhere, counted against its health).

Three media implement the contract:

* :class:`InMemoryStorage` -- segments in RAM, zero simulated latency.
  It is the daemon benchmark's backend, the segment store inside every
  :class:`~repro.storage.server.StorageServer` and :class:`OnDiskStorage`,
  and the one medium adversaries mutate
  (:meth:`InMemoryStorage.overwrite_segment`).
* :class:`OnDiskStorage` -- containers persisted to a real directory
  (one ``.gpf`` file per :class:`~repro.por.file_format.EncodedFile`),
  loaded lazily and served from memory afterwards.  Survives process
  restarts.
* :class:`SimulatedHDDStorage` -- a named view over a
  :class:`~repro.storage.server.StorageServer`, so lookups cost
  seek + rotate + transfer (plus any shared-spindle queue wait).  A
  :class:`~repro.cloud.provider.DataCentre` is this view with a
  location.
"""

from __future__ import annotations

import contextlib
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import (
    BlockNotFoundError,
    ConfigurationError,
    StorageUnavailableError,
)
from repro.por.file_format import EncodedFile, Segment

if TYPE_CHECKING:
    from repro.storage.server import StorageServer

#: File ids longer than this are rejected by :meth:`StorageProvider.validate`
#: (a service-facing bound: ids travel inside length-prefixed frames).
MAX_FILE_ID_BYTES = 256


@dataclass(frozen=True, slots=True)
class ServeResult:
    """One served segment plus the simulated cost of serving it."""

    segment: Segment
    elapsed_ms: float
    served_by: str
    #: The share of ``elapsed_ms`` spent queued on a shared spindle (0
    #: when the spindle is dedicated or the medium is unqueued).
    wait_ms: float = 0.0


class StorageProvider(ABC):
    """Abstract backend: validate ids, answer existence, serve segments."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ConfigurationError("provider name must be non-empty")
        self.name = name
        self.n_lookups = 0

    # -- contract -----------------------------------------------------------

    def validate(self, file_id: bytes) -> bytes:
        """Check a file id before it touches backend state.

        Fails closed on anything that is not a non-empty, bounded
        bytestring; returns the id unchanged when valid so call sites
        can write ``backend.lookup(backend.validate(fid), i)``.
        """
        if not isinstance(file_id, bytes):
            raise ConfigurationError(
                f"file id must be bytes, got {type(file_id).__name__}"
            )
        if not file_id:
            raise ConfigurationError("file id must be non-empty")
        if len(file_id) > MAX_FILE_ID_BYTES:
            raise ConfigurationError(
                f"file id exceeds {MAX_FILE_ID_BYTES} bytes"
            )
        return file_id

    @abstractmethod
    def exists(self, file_id: bytes, index: int | None = None) -> bool:
        """Is the file stored here (or, with ``index``, that segment)?"""

    @abstractmethod
    def lookup(self, file_id: bytes, index: int) -> ServeResult:
        """Serve one segment; raises a ``StorageError`` on failure."""

    @abstractmethod
    def put_file(self, encoded: EncodedFile) -> None:
        """Ingest a whole encoded file."""

    @abstractmethod
    def delete_file(self, file_id: bytes) -> None:
        """Remove a file entirely."""

    @abstractmethod
    def file_ids(self) -> list[bytes]:
        """All file ids stored on this backend."""

    # -- audit-loop serve ------------------------------------------------------

    def handle_request(self, file_id: bytes, index: int) -> ServeResult:
        """The verifier's serve: validate the id, then look it up."""
        return self.lookup(self.validate(file_id), index)


class InMemoryStorage(StorageProvider):
    """All segments in RAM; lookups are free in simulated time.

    Lookup results are memoized per ``(file_id, index)``, so the hot
    audit path pays one dict probe per round; :meth:`overwrite_segment`
    and :meth:`delete_file` drop the stale entries.  Readers that
    charge their own time (the storage server) read through
    :meth:`get_segment` and build no memo.
    """

    def __init__(self, name: str = "memory") -> None:
        super().__init__(name)
        self._files: dict[bytes, dict[int, Segment]] = {}
        self._meta: dict[bytes, EncodedFile] = {}
        self._memo: dict[tuple[bytes, int], ServeResult] = {}

    def _require(self, file_id: bytes) -> dict[int, Segment]:
        segments = self._files.get(file_id)
        if segments is None:
            raise BlockNotFoundError(f"no such file: {file_id!r}")
        return segments

    def exists(self, file_id: bytes, index: int | None = None) -> bool:
        segments = self._files.get(file_id)
        if segments is None:
            return False
        return index is None or index in segments

    def get_segment(self, file_id: bytes, index: int) -> Segment:
        """The stored segment; raises if the file or segment is missing."""
        segment = self._require(file_id).get(index)
        if segment is None:
            raise BlockNotFoundError(
                f"segment {index} of file {file_id!r} not stored"
            )
        return segment

    def lookup(self, file_id: bytes, index: int) -> ServeResult:
        result = self._memo.get((file_id, index))
        if result is None:
            result = ServeResult(
                segment=self.get_segment(file_id, index),
                elapsed_ms=0.0,
                served_by=self.name,
            )
            self._memo[(file_id, index)] = result
        self.n_lookups += 1
        return result

    def n_segments(self, file_id: bytes) -> int:
        """Segment count of a stored file."""
        return len(self._require(file_id))

    def file_meta(self, file_id: bytes) -> EncodedFile:
        """The :class:`EncodedFile` container a file was ingested with.

        The container reflects upload-time contents; per-segment
        mutations live in the segment map, so read :meth:`get_segment`
        for current data.
        """
        self._require(file_id)
        return self._meta[file_id]

    def put_file(self, encoded: EncodedFile) -> None:
        file_id = self.validate(encoded.file_id)
        if file_id in self._files:
            raise ConfigurationError(f"file {file_id!r} already stored")
        self._files[file_id] = {
            segment.index: segment for segment in encoded.segments
        }
        self._meta[file_id] = encoded

    def delete_file(self, file_id: bytes) -> None:
        self._require(file_id)
        del self._files[file_id]
        del self._meta[file_id]
        self._memo = {
            key: value for key, value in self._memo.items()
            if key[0] != file_id
        }

    def overwrite_segment(self, file_id: bytes, segment: Segment) -> None:
        """Replace a stored segment in place (adversary/repair hook)."""
        segments = self._require(file_id)
        if segment.index not in segments:
            raise BlockNotFoundError(
                f"segment {segment.index} of file {file_id!r} not stored"
            )
        segments[segment.index] = segment
        self._memo.pop((file_id, segment.index), None)

    def file_ids(self) -> list[bytes]:
        return list(self._files)


class OnDiskStorage(StorageProvider):
    """Containers persisted to a real directory; served from RAM after load.

    One ``<file_id.hex()>.gpf`` file per container, written with
    :meth:`~repro.por.file_format.EncodedFile.to_bytes` to a
    ``.partial`` name and renamed into place, so a failed write leaves
    no container behind.  A second process (or a restarted daemon)
    pointed at the same root sees the same files.  An unreadable root,
    a corrupt container or a container filed under another file's name
    surfaces as :class:`~repro.errors.StorageUnavailableError`, which
    the registry counts towards the backend's health.
    """

    def __init__(self, name: str, root: str) -> None:
        super().__init__(name)
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._loaded = InMemoryStorage(name)

    def _path(self, file_id: bytes) -> str:
        return os.path.join(self.root, file_id.hex() + ".gpf")

    def _load(self, file_id: bytes) -> None:
        """Parse a file's container into the RAM store."""
        path = self._path(file_id)
        if not os.path.exists(path):
            raise BlockNotFoundError(f"no such file: {file_id!r}")
        try:
            with open(path, "rb") as handle:
                encoded = EncodedFile.from_bytes(handle.read())
        except OSError as exc:
            raise StorageUnavailableError(
                f"backend {self.name!r} cannot read {path}: {exc}"
            ) from exc
        except Exception as exc:  # corrupt container: fail closed
            raise StorageUnavailableError(
                f"backend {self.name!r} has a corrupt container at {path}"
            ) from exc
        if encoded.file_id != file_id:
            raise StorageUnavailableError(
                f"backend {self.name!r} has a corrupt container at {path}: "
                f"it holds file {encoded.file_id!r}"
            )
        self._loaded.put_file(encoded)

    def exists(self, file_id: bytes, index: int | None = None) -> bool:
        if not self._loaded.exists(file_id):
            if not os.path.exists(self._path(file_id)):
                return False
            if index is None:
                return True
            self._load(file_id)
        return self._loaded.exists(file_id, index)

    def lookup(self, file_id: bytes, index: int) -> ServeResult:
        if not self._loaded.exists(file_id):
            self._load(file_id)
        result = self._loaded.lookup(file_id, index)
        self.n_lookups += 1
        return result

    def put_file(self, encoded: EncodedFile) -> None:
        file_id = self.validate(encoded.file_id)
        path = self._path(file_id)
        if self._loaded.exists(file_id) or os.path.exists(path):
            raise ConfigurationError(f"file {file_id!r} already stored")
        payload = encoded.to_bytes()
        partial = path + ".partial"  # not a .gpf: file_ids() skips it
        try:
            with open(partial, "wb") as handle:
                handle.write(payload)
            os.replace(partial, path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.remove(partial)
            raise StorageUnavailableError(
                f"backend {self.name!r} cannot write {path}: {exc}"
            ) from exc
        self._loaded.put_file(encoded)

    def delete_file(self, file_id: bytes) -> None:
        if self._loaded.exists(file_id):
            self._loaded.delete_file(file_id)
        path = self._path(file_id)
        if not os.path.exists(path):
            raise BlockNotFoundError(f"no such file: {file_id!r}")
        os.remove(path)

    def file_ids(self) -> list[bytes]:
        ids: list[bytes] = []
        for entry in sorted(os.listdir(self.root)):
            if not entry.endswith(".gpf"):
                continue
            try:
                file_id = bytes.fromhex(entry[: -len(".gpf")])
            except ValueError:
                continue  # foreign file in the root; not ours
            # Only names _path() itself writes: ``bytes.fromhex`` also
            # accepts upper case and spaces, which no id maps back to.
            if file_id and file_id.hex() + ".gpf" == entry:
                ids.append(file_id)
        return ids


class SimulatedHDDStorage(StorageProvider):
    """A named view over a simulated disk: lookups cost disk time.

    Each lookup pays what the
    :class:`~repro.storage.server.StorageServer` charges: seek +
    rotate + transfer, plus the queue wait on a shared spindle.
    Several views may share one server; they then serve the very
    segments, and pay the very spindle, that the simulation owns.
    """

    def __init__(self, name: str, *, server: StorageServer) -> None:
        super().__init__(name)
        self.server = server

    def exists(self, file_id: bytes, index: int | None = None) -> bool:
        return self.server.store.exists(file_id, index)

    def lookup(self, file_id: bytes, index: int) -> ServeResult:
        result = self.server.lookup(file_id, index, self.name)
        self.n_lookups += 1
        return result

    def put_file(self, encoded: EncodedFile) -> None:
        self.server.store.put_file(encoded)

    def delete_file(self, file_id: bytes) -> None:
        self.server.store.delete_file(file_id)

    def file_ids(self) -> list[bytes]:
        return self.server.store.file_ids()
