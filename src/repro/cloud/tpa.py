"""The third-party auditor (TPA).

"A third party auditor communicates with this device in order to
assure the geographic location on behalf of the data owner.  The TPA
knows the secret key used to verify the MAC tags associated to the
data."

The TPA issues :class:`~repro.core.messages.AuditRequest`s to the
verifier device, verifies the signed transcripts it gets back, and
keeps a bounded log of recent outcomes plus exact counters for
compliance reporting.

Every audit, whatever its entry point, runs through one protocol body
and one verdict body:

* :meth:`ThirdPartyAuditor._run_protocols` draws a fresh-nonce request
  per admitted order and runs the timed phases through one
  :meth:`~repro.cloud.verifier.VerifierDevice.run_audits` call;
* :meth:`ThirdPartyAuditor._settle` verifies the transcripts in one
  :func:`~repro.core.verification.verify_transcripts` batch (shared MAC
  key schedules, one Schnorr check per distinct batch root), logs each
  outcome and updates the obs series.

:meth:`ThirdPartyAuditor.audit_deferred_many` runs a batch of
``(file_id, k)`` orders and returns one entry per order: the
:class:`PendingAudit` it started, or the
:class:`~repro.errors.ReproError` it failed with.  Orders fail alone.
The TPA refuses an unregistered file or an out-of-range ``k`` before
it draws a nonce, and the device fails a request whose rounds raise
without touching its neighbours.  The caller holds its pending runs
and passes them to :meth:`ThirdPartyAuditor.flush_verdicts`, which
settles exactly those.  :meth:`ThirdPartyAuditor.audit_deferred` is a
batch of one that raises its error, and
:meth:`ThirdPartyAuditor.audit` is that batch of one settled at once.
Grouping changes only when the arithmetic happens: verdicts are
byte-identical to the scalar reference oracles (``make_request``,
``VerifierDevice.run_audit``, then
:func:`~repro.core.verification.verify_transcript`), pinned by test.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.cloud.provider import CloudProvider
from repro.cloud.sla import SLAPolicy
from repro.cloud.verifier import VerifierDevice
from repro.core.messages import AuditRequest, SignedTranscript
from repro.core.verification import (
    GeoProofVerdict,
    TranscriptVerification,
    # Unused here, but perfbench/tracing.py patches it by name on this
    # module, so it must stay importable from repro.cloud.tpa.
    verify_transcript,  # noqa: F401
    verify_transcripts,
)
from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError, ReproError
from repro.por.parameters import PORParams

#: Outcomes :attr:`ThirdPartyAuditor.audit_log` keeps by default.  The
#: log is always a ring: a daemon that audits for days holds the most
#: recent outcomes, never its whole history.
AUDIT_LOG_LIMIT = 1024


@dataclass(frozen=True, slots=True)
class AuditOutcome:
    """One completed audit: request, transcript, verdict, timestamp."""

    request: AuditRequest
    transcript: SignedTranscript
    verdict: GeoProofVerdict
    started_ms: float
    finished_ms: float

    @property
    def duration_ms(self) -> float:
        """Wall (simulated) duration of the audit's timed phase."""
        return self.finished_ms - self.started_ms


@dataclass
class FileRecord:
    """What the TPA knows about one outsourced file."""

    file_id: bytes
    n_segments: int
    # repr=False: the shared MAC verification key must not surface in
    # logs or pytest failure output (CRY003).
    mac_key: bytes = field(repr=False)
    params: PORParams
    sla: SLAPolicy


@dataclass(frozen=True, slots=True)
class PendingAudit:
    """A protocol run awaiting its verdict.

    The deferred entry points return these; the caller holds them until
    it passes them to :meth:`ThirdPartyAuditor.flush_verdicts`.
    """

    job: TranscriptVerification
    started_ms: float
    finished_ms: float


class ThirdPartyAuditor:
    """Drives GeoProof audits on behalf of data owners.

    :attr:`audit_log` is a ring buffer of the ``max_log`` most recent
    outcomes (default :data:`AUDIT_LOG_LIMIT`); a daemon or a
    month-long fleet campaign would otherwise hold every transcript in
    RAM.  There is no unbounded mode.  The aggregate reports --
    :meth:`acceptance_rate` and :meth:`failures_by_reason` -- are
    computed from exact streaming counters updated as outcomes are
    logged, so they cover the *full* audit history even after the ring
    has evicted the underlying outcomes.
    """

    def __init__(
        self, name: str, rng: DeterministicRNG, *, max_log: int = AUDIT_LOG_LIMIT
    ) -> None:
        if max_log is None or max_log < 1:
            raise ConfigurationError(f"max_log must be >= 1, got {max_log}")
        self.name = name
        self._rng = rng
        self._files: dict[bytes, FileRecord] = {}
        self.audit_log: deque[AuditOutcome] = deque(maxlen=max_log)
        self._n_logged = 0
        self._n_accepted = 0
        self._failure_counts: dict[str, int] = {}
        # Obs series bound per auditor (no-op children when disabled).
        registry = obs.metrics()
        self._obs_accepted = registry.counter(
            "repro_tpa_verdicts_total",
            "Verdicts settled by this auditor",
            ("tpa", "verdict"),
        ).labels(name, "accepted")
        self._obs_rejected = registry.counter(
            "repro_tpa_verdicts_total",
            "Verdicts settled by this auditor",
            ("tpa", "verdict"),
        ).labels(name, "rejected")
        self._obs_flush_size = registry.histogram(
            "repro_tpa_flush_size",
            "Pending transcripts settled per verdict flush",
            ("tpa",),
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
        ).labels(name)

    # -- registration ---------------------------------------------------

    def register_file(
        self,
        file_id: bytes,
        n_segments: int,
        mac_key: bytes,
        params: PORParams,
        sla: SLAPolicy,
    ) -> None:
        """Take over auditing duty for an outsourced file."""
        if file_id in self._files:
            raise ConfigurationError(f"file {file_id!r} already registered")
        self._files[file_id] = FileRecord(
            file_id=file_id,
            n_segments=n_segments,
            mac_key=mac_key,
            params=params,
            sla=sla,
        )

    def record(self, file_id: bytes) -> FileRecord:
        """Look up a registered file."""
        record = self._files.get(file_id)
        if record is None:
            raise ConfigurationError(f"file {file_id!r} not registered")
        return record

    # -- auditing -----------------------------------------------------------

    def make_request(self, file_id: bytes, k: int | None = None) -> AuditRequest:
        """Build a fresh audit request (fresh nonce every time).

        ``k=None`` means the SLA's minimum round count.  An unregistered
        file or an out-of-range ``k`` is refused before the nonce is
        drawn, so a refused request never moves the nonce stream.
        """
        record = self.record(file_id)
        rounds = k if k is not None else record.sla.min_rounds
        if not 0 < rounds <= record.n_segments:
            raise ConfigurationError(
                f"k must be in 1..{record.n_segments}, got {rounds}"
            )
        return AuditRequest(
            file_id=file_id,
            n_segments=record.n_segments,
            k=rounds,
            nonce=self._rng.random_bytes(16),
        )

    def audit(
        self,
        file_id: bytes,
        verifier: VerifierDevice,
        provider: CloudProvider,
        *,
        k: int | None = None,
        rtt_max_ms: float | None = None,
        region=None,
        clock=None,
    ) -> AuditOutcome:
        """Run one full audit and log the outcome: a batch of one.

        ``rtt_max_ms`` overrides the SLA-calibrated budget (used by the
        threshold-sweep benches) and ``region`` overrides the SLA's
        geographic clause (used when auditing replica sites, each of
        which has its own region); both default to the registered SLA.
        ``clock`` injects the clock the timed phase runs on (the fleet
        passes a per-datacentre lane clock); default is the verifier
        device's own clock.  Raises the order's error if it fails.
        """
        (outcome,) = self._settle([self.audit_deferred(
            file_id, verifier, provider,
            k=k, rtt_max_ms=rtt_max_ms, region=region, clock=clock,
        )])
        return outcome

    def audit_deferred(
        self,
        file_id: bytes,
        verifier: VerifierDevice,
        provider: CloudProvider,
        *,
        k: int | None = None,
        rtt_max_ms: float | None = None,
        region=None,
        clock=None,
    ) -> PendingAudit:
        """Run the protocol now; return the run for a batched verdict.

        The timed phase happens immediately on the injected clock --
        deferral changes *when the TPA does its arithmetic*, never what
        the provider observes.  Pass the returned run to
        :meth:`flush_verdicts`.  Raises the order's error if it fails.
        """
        (entry,) = self._run_protocols(
            [(file_id, k)], verifier, provider,
            rtt_max_ms=rtt_max_ms, region=region, clock=clock,
        )
        if isinstance(entry, ReproError):
            raise entry
        return entry

    def audit_deferred_many(
        self,
        orders: Sequence[tuple[bytes, int | None]],
        verifier: VerifierDevice,
        provider: CloudProvider,
        *,
        rtt_max_ms: float | None = None,
        region=None,
        clock=None,
    ) -> list[PendingAudit | ReproError]:
        """Run a batch of ``(file_id, k)`` orders; one entry per order.

        ``k=None`` means the SLA minimum.  Each entry is the order's
        :class:`PendingAudit`, or the :class:`~repro.errors.ReproError`
        it failed with, and an order fails alone.  A refused order (see
        :meth:`make_request`) draws no nonce and never reaches the
        device.  Equivalent to calling :meth:`audit_deferred` once per
        order (pinned by test): the nonce stream advances in order and
        all timed rounds run back to back on the shared clock.  The
        verifier amortizes challenge derivation, LAN arithmetic and
        signing across the whole batch.
        """
        return self._run_protocols(
            orders, verifier, provider,
            rtt_max_ms=rtt_max_ms, region=region, clock=clock,
        )

    def flush_verdicts(self, pending: Sequence[PendingAudit]) -> list[AuditOutcome]:
        """Verify these runs in one batch; log them and return their outcomes.

        Outcomes come back in the order of ``pending`` and are
        byte-identical to what :meth:`audit` would have logged for the
        same protocol runs (pinned by test) -- the grouping only changes
        how the MAC and Schnorr arithmetic is batched.
        """
        if not pending:
            return []
        return self._settle(pending)

    # -- the protocol and verdict bodies -------------------------------------

    def _run_protocols(
        self,
        orders: Sequence[tuple[bytes, int | None]],
        verifier: VerifierDevice,
        provider: CloudProvider,
        *,
        rtt_max_ms: float | None,
        region,
        clock,
    ) -> list[PendingAudit | ReproError]:
        """Run the timed protocol phases; package what each verdict needs.

        Draws one fresh-nonce request per admitted order, in order, then
        runs every timed phase through one
        :meth:`~repro.cloud.verifier.VerifierDevice.run_audits` call.
        An order refused here, or failed by the device, keeps its error
        in its place.
        """
        # Per order: the error that refused it, or its file record.
        admitted: list[FileRecord | ReproError] = []
        requests: list[AuditRequest] = []
        for file_id, k in orders:
            try:
                request = self.make_request(file_id, k)
            except ReproError as exc:
                admitted.append(exc)
                continue
            admitted.append(self._files[file_id])
            requests.append(request)
        runs = iter(zip(
            requests, verifier.run_audits(requests, provider, clock=clock)
        ))
        public_key = verifier.public_key
        entries: list[PendingAudit | ReproError] = []
        for record in admitted:
            if isinstance(record, ReproError):
                entries.append(record)
                continue
            request, run = next(runs)
            if isinstance(run, ReproError):
                entries.append(run)
                continue
            entries.append(PendingAudit(
                job=TranscriptVerification(
                    transcript=run.transcript,
                    request=request,
                    verifier_public_key=public_key,
                    mac_key=record.mac_key,
                    params=record.params,
                    region=region if region is not None else record.sla.region,
                    rtt_max_ms=(
                        rtt_max_ms
                        if rtt_max_ms is not None
                        else record.sla.rtt_max_ms
                    ),
                ),
                started_ms=run.started_ms,
                finished_ms=run.finished_ms,
            ))
        return entries

    def _settle(self, pending: Sequence[PendingAudit]) -> list[AuditOutcome]:
        """Verify protocol runs in one batch; log and count each outcome."""
        with obs.tracer().wall_span(f"tpa.flush:{self.name}"):
            verdicts = verify_transcripts([entry.job for entry in pending])
        self._obs_flush_size.observe(len(pending))
        n_accepted = 0
        outcomes: list[AuditOutcome] = []
        for entry, verdict in zip(pending, verdicts):
            outcome = AuditOutcome(
                request=entry.job.request,
                transcript=entry.job.transcript,
                verdict=verdict,
                started_ms=entry.started_ms,
                finished_ms=entry.finished_ms,
            )
            self.audit_log.append(outcome)
            n_accepted += verdict.accepted
            for reason in verdict.failure_reasons:
                self._failure_counts[reason] = (
                    self._failure_counts.get(reason, 0) + 1
                )
            outcomes.append(outcome)
        self._n_logged += len(outcomes)
        self._n_accepted += n_accepted
        if n_accepted:
            self._obs_accepted.inc(n_accepted)
        if len(outcomes) - n_accepted:
            self._obs_rejected.inc(len(outcomes) - n_accepted)
        return outcomes

    # -- reporting ------------------------------------------------------------

    def acceptance_rate(self) -> float:
        """Fraction of all logged audits that were accepted.

        Counted over the full audit history (exact even after ring
        eviction).  By convention an empty log is
        ``0.0`` -- a TPA that has never audited has proven nothing, so
        reports must not read as a perfect record.
        """
        if self._n_logged == 0:
            return 0.0
        return self._n_accepted / self._n_logged

    def failures_by_reason(self) -> dict[str, int]:
        """Histogram of failure reasons across the full audit history."""
        return dict(self._failure_counts)
