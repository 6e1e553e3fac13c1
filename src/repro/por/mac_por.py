"""The MAC-based POR protocol (client and server sides).

This is the POS component of GeoProof: the client (or TPA) challenges
with ``k`` random segment indices; the server returns each segment with
its embedded tag; verification recomputes
``tau_cj = MAC_K'(S_cj, c_j, fid)``.

The classes here implement the *untimed* protocol -- the pure proof of
storage.  GeoProof (in :mod:`repro.core`) reuses the same challenge and
verification logic but routes each round through the timed
distance-bounding channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.mac import mac_verify
from repro.crypto.rng import DeterministicRNG
from repro.errors import BlockNotFoundError, ConfigurationError, VerificationError
from repro.por.file_format import EncodedFile, Segment
from repro.por.parameters import PORParams
from repro.util.serialization import encode_uint_list


@dataclass(frozen=True)
class PORChallenge:
    """A challenge: ``k`` distinct segment indices plus a nonce."""

    indices: tuple[int, ...]
    nonce: bytes

    def wire_bytes(self) -> bytes:
        """Canonical encoding (bound into GeoProof's signed transcript)."""
        return encode_uint_list(list(self.indices)) + self.nonce


@dataclass(frozen=True)
class PORResponse:
    """The server's response: one segment per challenged index."""

    segments: tuple[Segment, ...]


@dataclass
class VerificationReport:
    """Outcome of verifying a :class:`PORResponse`.

    ``ok`` is True iff every requested index was answered with a
    correctly-tagged segment.  ``bad_indices`` lists failures for
    diagnosis.
    """

    ok: bool
    checked: int
    bad_indices: list[int] = field(default_factory=list)
    missing_indices: list[int] = field(default_factory=list)


class MacPORServer:
    """The storage side: holds ``F~`` and answers segment requests.

    An honest server simply looks segments up.  Dishonest behaviour
    (corruption, deletion) is modelled by mutating ``encoded_file`` via
    the adversary helpers in :mod:`repro.cloud.adversary`.
    """

    def __init__(self, encoded_file: EncodedFile) -> None:
        self.encoded_file = encoded_file

    def respond(self, challenge: PORChallenge) -> PORResponse:
        """Answer every index in the challenge (raises if any is absent)."""
        segments = tuple(
            self.encoded_file.segment(index) for index in challenge.indices
        )
        return PORResponse(segments=segments)


class MacPORClient:
    """The verifying side: issues challenges and checks responses.

    Holds only the MAC key, the file id, the parameter set and the
    segment count -- O(1) client state, the defining POR property
    ("the size of the information exchanged ... may even be independent
    of the size of stored data").
    """

    def __init__(
        self,
        mac_key: bytes,
        file_id: bytes,
        n_segments: int,
        params: PORParams | None = None,
    ) -> None:
        if n_segments <= 0:
            raise ConfigurationError(
                f"n_segments must be positive, got {n_segments}"
            )
        self.mac_key = mac_key
        self.file_id = file_id
        self.n_segments = n_segments
        self.params = params or PORParams()

    def make_challenge(self, k: int, rng: DeterministicRNG) -> PORChallenge:
        """Draw ``k`` distinct random segment indices and a fresh nonce."""
        if not 0 < k <= self.n_segments:
            raise ConfigurationError(
                f"k must be in 1..{self.n_segments}, got {k}"
            )
        indices = tuple(rng.sample_indices(self.n_segments, k))
        return PORChallenge(indices=indices, nonce=rng.random_bytes(16))

    def verify_segment(self, index: int, segment: Segment) -> bool:
        """Check a single segment's tag against its claimed index."""
        if segment.index != index:
            return False
        return mac_verify(
            self.mac_key,
            segment.payload,
            index,
            self.file_id,
            segment.tag,
            tag_bits=self.params.tag_bits,
        )

    def verify_response(
        self, challenge: PORChallenge, response: PORResponse
    ) -> VerificationReport:
        """Check every returned segment; never raises."""
        report = VerificationReport(ok=True, checked=len(challenge.indices))
        answered = {segment.index: segment for segment in response.segments}
        for index in challenge.indices:
            segment = answered.get(index)
            if segment is None:
                report.missing_indices.append(index)
                report.ok = False
            elif not self.verify_segment(index, segment):
                report.bad_indices.append(index)
                report.ok = False
        return report

    def require_valid(
        self, challenge: PORChallenge, response: PORResponse
    ) -> None:
        """Raise :class:`VerificationError` on any failure."""
        report = self.verify_response(challenge, response)
        if not report.ok:
            raise VerificationError(
                f"POR verification failed: bad={report.bad_indices} "
                f"missing={report.missing_indices}",
                reason="mac",
            )
