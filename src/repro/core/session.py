"""End-to-end GeoProof session orchestration.

:class:`GeoProofSession` wires the whole Fig. 4 deployment together for
the common case -- one data owner, one provider, one verifier device,
one TPA -- so examples and benchmarks can run audits in a few lines:

    session = GeoProofSession.build(...)
    session.outsource(b"file-1", data)
    outcome = session.audit(b"file-1")
    assert outcome.verdict.accepted

The session owns the shared simulated clock; repeated audits advance
it monotonically, and the event scheduler can interleave other actors.

The data-owner setup plumbing lives in :func:`outsource_file` so the
multi-tenant :class:`~repro.fleet.fleet.AuditFleet` can reuse it
verbatim; the session remains the one-owner convenience wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.provider import CloudProvider, DataCentre
from repro.cloud.sla import SLAPolicy
from repro.cloud.tpa import AuditOutcome, ThirdPartyAuditor
from repro.cloud.verifier import VerifierDevice
from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError
from repro.geo.coords import GeoPoint
from repro.geo.regions import CircularRegion, Region
from repro.netsim.clock import SimClock
from repro.por.parameters import PORParams
from repro.por.setup import PORKeys, setup_file
from repro.util.wallclock import wall_seconds


@dataclass
class OutsourcedFile:
    """Client-side record of one outsourced file."""

    file_id: bytes
    keys: PORKeys
    n_segments: int
    original_bytes: int
    stored_bytes: int
    #: Wall time the Juels-Kaliski setup pipeline took, in seconds.
    #: Benchmarks aggregate this to track the outsourcing hot path.  No
    #: one stage dominates it: in perfbench's traced onboarding ledger
    #: for 16 kB files the block permutation (crypto.prp) and the RS
    #: encode (erasure.striping) lead, ahead of AES-CTR and MAC
    #: tagging; on small files the permutation leads alone.
    setup_seconds: float = 0.0


def outsource_file(
    *,
    file_id: bytes,
    data: bytes,
    provider: CloudProvider,
    tpa: ThirdPartyAuditor,
    params: PORParams,
    sla: SLAPolicy,
    home_datacentre: str,
    rng: DeterministicRNG,
) -> OutsourcedFile:
    """Encode ``data``, upload it, and hand auditing duty to the TPA.

    This is the data-owner side of Fig. 4's setup phase, shared by the
    single-owner :class:`GeoProofSession` and the multi-tenant
    :class:`~repro.fleet.fleet.AuditFleet`: derive per-file POR keys
    from the caller's RNG, run the Juels-Kaliski setup pipeline, store
    the encoded file at its contractual home site, and register the
    MAC key + SLA with the TPA.
    """
    keys = PORKeys.derive(
        rng.fork(f"keys-{file_id.hex()}").random_bytes(32)
    )
    # setup_seconds reports the *real* encode cost of the outsourcing
    # hot path (tracked by bench_prp/bench_rs); it never feeds a
    # simulated quantity (see util/wallclock.py).
    setup_start = wall_seconds()
    encoded = setup_file(data, keys, file_id, params)
    setup_seconds = wall_seconds() - setup_start
    provider.upload(encoded, home_datacentre)
    tpa.register_file(
        file_id,
        encoded.n_segments,
        keys.mac_key,
        params,
        sla,
    )
    return OutsourcedFile(
        file_id=file_id,
        keys=keys,
        n_segments=encoded.n_segments,
        original_bytes=len(data),
        stored_bytes=encoded.stored_bytes,
        setup_seconds=setup_seconds,
    )


class GeoProofSession:
    """A ready-to-run GeoProof deployment."""

    def __init__(
        self,
        provider: CloudProvider,
        verifier: VerifierDevice,
        tpa: ThirdPartyAuditor,
        sla: SLAPolicy,
        params: PORParams,
        home_datacentre: str,
        rng: DeterministicRNG,
    ) -> None:
        self.provider = provider
        self.verifier = verifier
        self.tpa = tpa
        self.sla = sla
        self.params = params
        self.home_datacentre = home_datacentre
        self._rng = rng
        self.files: dict[bytes, OutsourcedFile] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        *,
        datacentre_location: GeoPoint,
        region: Region | None = None,
        params: PORParams | None = None,
        min_rounds: int = 50,
        seed: str = "geoproof-session",
        tpa_max_log: int | None = None,
    ) -> "GeoProofSession":
        """Build the standard single-site deployment.

        The site serves from a WD 2500JD, and the SLA keeps
        :class:`~repro.cloud.sla.SLAPolicy`'s defaults for the disk,
        the LAN budget and the margin, which match it.  The SLA region
        defaults to a 100 km circle around the data centre; the
        segment-size term of the timing budget is taken from
        ``params``.

        ``tpa_max_log`` is accepted and ignored: the TPA keeps counters,
        not a history of outcomes, so there is nothing for it to size.
        The keyword stays only until the repository benchmark stops
        passing it.
        """
        params = params or PORParams()
        rng = DeterministicRNG(seed)
        clock = SimClock()
        sla = SLAPolicy(
            region=region
            or CircularRegion(centre=datacentre_location, radius_km=100.0),
            segment_bytes=params.segment_bytes + params.tag_bytes,
            min_rounds=min_rounds,
        )
        provider = CloudProvider("provider")
        provider.add_datacentre(DataCentre("home", datacentre_location))
        verifier = VerifierDevice(
            b"verifier-1",
            datacentre_location,
            clock=clock,
            rng=rng.fork("verifier"),
        )
        tpa = ThirdPartyAuditor("tpa", rng.fork("tpa"))
        return cls(
            provider=provider,
            verifier=verifier,
            tpa=tpa,
            sla=sla,
            params=params,
            home_datacentre="home",
            rng=rng,
        )

    # -- data-owner operations ---------------------------------------------

    def outsource(self, file_id: bytes, data: bytes) -> OutsourcedFile:
        """Encode a file, upload it, and register it with the TPA."""
        if file_id in self.files:
            raise ConfigurationError(f"file {file_id!r} already outsourced")
        record = outsource_file(
            file_id=file_id,
            data=data,
            provider=self.provider,
            tpa=self.tpa,
            params=self.params,
            sla=self.sla,
            home_datacentre=self.home_datacentre,
            rng=self._rng,
        )
        self.files[file_id] = record
        return record

    # -- auditing --------------------------------------------------------------

    def audit(
        self,
        file_id: bytes,
        *,
        k: int | None = None,
        rtt_max_ms: float | None = None,
    ) -> AuditOutcome:
        """Run one GeoProof audit against the current provider policy."""
        if file_id not in self.files:
            raise ConfigurationError(f"file {file_id!r} not outsourced")
        return self.tpa.audit(
            file_id,
            self.verifier,
            self.provider,
            k=k,
            rtt_max_ms=rtt_max_ms,
        )
