"""The abstract storage-provider contract the service plane schedules over.

The daemon does not care *where* segments live -- it needs three
capabilities from a backend (the familiar cloud-provider shape:
validate a path, answer existence queries, serve reads):

* :meth:`StorageProvider.validate` -- check/normalise a file id before
  it touches backend state;
* :meth:`StorageProvider.exists` -- does a file (or one segment of it)
  exist here;
* :meth:`StorageProvider.lookup` -- serve one segment, reporting the
  simulated time the read took.

Three implementations span the deployment spectrum:

* :class:`InMemoryStorage` -- everything in RAM, zero simulated
  latency.  The daemon benchmark's backend: it isolates protocol and
  verification cost from media cost.
* :class:`OnDiskStorage` -- containers persisted to a real directory
  (one ``.gpf`` file per :class:`~repro.por.file_format.EncodedFile`),
  loaded lazily and served from memory afterwards.  Survives process
  restarts.
* :class:`SimulatedHDDStorage` -- wraps the existing
  :class:`~repro.storage.server.StorageServer` so lookups cost
  seek + rotate + transfer exactly like a
  :class:`~repro.cloud.provider.DataCentre` serve.

Every provider also exposes ``handle_request(file_id, index)`` with the
:class:`~repro.cloud.provider.CloudProvider` serve signature, so the
verifier's audit loop (:meth:`~repro.cloud.verifier.VerifierDevice.run_audits`)
can run directly against a registry-selected backend.
"""

from __future__ import annotations

import contextlib
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import (
    BlockNotFoundError,
    ConfigurationError,
    StorageUnavailableError,
)
from repro.por.file_format import EncodedFile, Segment
from repro.storage.hdd import HDDSpec, WD_2500JD
from repro.storage.server import StorageServer

#: File ids longer than this are rejected by :meth:`StorageProvider.validate`
#: (a service-facing bound: ids travel inside length-prefixed frames).
MAX_FILE_ID_BYTES = 256


@dataclass(frozen=True, slots=True)
class ProviderLookup:
    """One served segment plus the simulated cost of serving it.

    Duck-compatible with :class:`~repro.cloud.provider.ServeResult`
    where the audit loop is concerned (``segment`` + ``elapsed_ms``).
    """

    segment: Segment
    elapsed_ms: float
    served_by: str


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
    def lookup(self, file_id: bytes, index: int) -> ProviderLookup:
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

    # -- audit-loop compatibility ------------------------------------------

    def handle_request(self, file_id: bytes, index: int) -> ProviderLookup:
        """:class:`~repro.cloud.provider.CloudProvider`-shaped serve."""
        return self.lookup(self.validate(file_id), index)


class InMemoryStorage(StorageProvider):
    """All segments in RAM; lookups are free in simulated time.

    The daemon benchmark backend.  Lookup results are memoized per
    ``(file_id, index)`` -- segments are immutable, so the hot audit
    path pays one dict probe per round.
    """

    def __init__(self, name: str = "memory") -> None:
        super().__init__(name)
        self._files: dict[bytes, dict[int, Segment]] = {}
        self._memo: dict[tuple[bytes, int], ProviderLookup] = {}

    def exists(self, file_id: bytes, index: int | None = None) -> bool:
        segments = self._files.get(file_id)
        if segments is None:
            return False
        return index is None or index in segments

    def lookup(self, file_id: bytes, index: int) -> ProviderLookup:
        memo = self._memo.get((file_id, index))
        if memo is not None:
            self.n_lookups += 1
            return memo
        segments = self._files.get(file_id)
        if segments is None:
            raise BlockNotFoundError(f"no such file: {file_id!r}")
        segment = segments.get(index)
        if segment is None:
            raise BlockNotFoundError(
                f"segment {index} of file {file_id!r} not stored"
            )
        result = ProviderLookup(
            segment=segment, elapsed_ms=0.0, served_by=self.name
        )
        self._memo[(file_id, index)] = result
        self.n_lookups += 1
        return result

    def put_file(self, encoded: EncodedFile) -> None:
        file_id = self.validate(encoded.file_id)
        if file_id in self._files:
            raise ConfigurationError(f"file {file_id!r} already stored")
        self._files[file_id] = {
            segment.index: segment for segment in encoded.segments
        }

    def delete_file(self, file_id: bytes) -> None:
        if file_id not in self._files:
            raise BlockNotFoundError(f"no such file: {file_id!r}")
        del self._files[file_id]
        self._memo = {
            key: value for key, value in self._memo.items()
            if key[0] != file_id
        }

    def overwrite_segment(self, file_id: bytes, segment: Segment) -> None:
        """Replace a segment in place (adversary/repair hook)."""
        segments = self._files.get(file_id)
        if segments is None or segment.index not in segments:
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
    pointed at the same root sees the same files.  An unreadable root
    or a corrupt container surfaces as
    :class:`~repro.errors.StorageUnavailableError`, which the registry
    counts towards the backend's health.
    """

    def __init__(self, name: str, root: str) -> None:
        super().__init__(name)
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._loaded: dict[bytes, dict[int, Segment]] = {}

    def _path(self, file_id: bytes) -> str:
        return os.path.join(self.root, file_id.hex() + ".gpf")

    def _segments(self, file_id: bytes) -> dict[int, Segment]:
        segments = self._loaded.get(file_id)
        if segments is not None:
            return segments
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
        segments = {segment.index: segment for segment in encoded.segments}
        self._loaded[file_id] = segments
        return segments

    def exists(self, file_id: bytes, index: int | None = None) -> bool:
        if file_id in self._loaded:
            segments = self._loaded[file_id]
        elif os.path.exists(self._path(file_id)):
            if index is None:
                return True
            segments = self._segments(file_id)
        else:
            return False
        return index is None or index in segments

    def lookup(self, file_id: bytes, index: int) -> ProviderLookup:
        segments = self._segments(file_id)
        segment = segments.get(index)
        if segment is None:
            raise BlockNotFoundError(
                f"segment {index} of file {file_id!r} not stored"
            )
        self.n_lookups += 1
        return ProviderLookup(
            segment=segment, elapsed_ms=0.0, served_by=self.name
        )

    def put_file(self, encoded: EncodedFile) -> None:
        file_id = self.validate(encoded.file_id)
        path = self._path(file_id)
        if os.path.exists(path):
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
        self._loaded[file_id] = {
            segment.index: segment for segment in encoded.segments
        }

    def delete_file(self, file_id: bytes) -> None:
        path = self._path(file_id)
        self._loaded.pop(file_id, None)
        if not os.path.exists(path):
            raise BlockNotFoundError(f"no such file: {file_id!r}")
        os.remove(path)

    def file_ids(self) -> list[bytes]:
        ids: list[bytes] = []
        for entry in sorted(os.listdir(self.root)):
            if entry.endswith(".gpf"):
                try:
                    ids.append(bytes.fromhex(entry[: -len(".gpf")]))
                except ValueError:
                    continue  # foreign file in the root; not ours
        return ids


class SimulatedHDDStorage(StorageProvider):
    """Lookups cost seek + rotate + transfer on a simulated spindle.

    Thin adapter over :class:`~repro.storage.server.StorageServer`, so
    the reported times match what a
    :class:`~repro.cloud.provider.DataCentre` with the same disk spec
    would report -- the registry can mix this with the RAM backends and
    verdict timing stays honest.
    """

    def __init__(
        self,
        name: str,
        *,
        disk: HDDSpec = WD_2500JD,
        cache_bytes: int = 0,
        server: StorageServer | None = None,
    ) -> None:
        super().__init__(name)
        # An existing server (e.g. a fleet data centre's) can be
        # adopted so the registry serves the very segments -- and pays
        # the very spindle -- that the simulation already owns.
        self.server = (
            server
            if server is not None
            else StorageServer(disk, cache_bytes=cache_bytes)
        )

    def exists(self, file_id: bytes, index: int | None = None) -> bool:
        store = self.server.store
        if not store.has_file(file_id):
            return False
        if index is None:
            return True
        try:
            store.get_segment(file_id, index)
        except BlockNotFoundError:
            return False
        return True

    def lookup(self, file_id: bytes, index: int) -> ProviderLookup:
        result = self.server.lookup(file_id, index)
        self.n_lookups += 1
        return ProviderLookup(
            segment=result.segment,
            elapsed_ms=result.elapsed_ms,
            served_by=self.name,
        )

    def put_file(self, encoded: EncodedFile) -> None:
        self.validate(encoded.file_id)
        self.server.store.put_file(encoded)

    def delete_file(self, file_id: bytes) -> None:
        self.server.store.delete_file(file_id)

    def file_ids(self) -> list[bytes]:
        return self.server.store.file_ids()
