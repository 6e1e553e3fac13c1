"""Exception hierarchy for the GeoProof reproduction.

Every error raised by this library derives from :class:`ReproError`, so
downstream users can catch a single base class.  Subsystems define their
own branches so that, e.g., a decoding failure (substrate problem) is
distinguishable from a protocol verification failure (the interesting,
security-relevant outcome).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A component was constructed or invoked with invalid parameters."""


class CryptoError(ReproError):
    """Base class for failures inside the crypto substrate."""


class InvalidKeyError(CryptoError):
    """A key had the wrong length or structure."""


class DecodingError(ReproError):
    """Base class for erasure-coding failures."""


class UncorrectableError(DecodingError):
    """A Reed-Solomon codeword had more errors than the code can fix."""


class StorageError(ReproError):
    """Base class for failures in the simulated storage layer."""


class BlockNotFoundError(StorageError):
    """A requested block/segment index does not exist on the server."""


class StorageUnavailableError(StorageError):
    """A storage backend is (transiently) unable to serve lookups.

    The service plane's provider registry counts these towards a
    backend's health; K consecutive failures mark it unhealthy and
    route audits to the fallback chain."""


class ProtocolError(ReproError):
    """Base class for protocol-level failures (malformed messages,
    out-of-order phases, etc.)."""


class VerificationError(ProtocolError):
    """A proof failed verification.

    The :attr:`reason` attribute carries a machine-readable tag used by
    the analysis layer to classify failures (e.g. ``"mac"``,
    ``"timing"``, ``"gps"``, ``"signature"``).
    """

    def __init__(self, message: str, *, reason: str = "unspecified") -> None:
        super().__init__(message)
        self.reason = reason


class SimulationError(ReproError):
    """Base class for errors in the discrete-event simulator."""


class ClockError(SimulationError):
    """Simulated time was asked to step backwards or by a non-finite amount."""
