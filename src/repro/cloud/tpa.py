"""The third-party auditor (TPA).

"A third party auditor communicates with this device in order to
assure the geographic location on behalf of the data owner.  The TPA
knows the secret key used to verify the MAC tags associated to the
data."

The TPA issues :class:`~repro.core.messages.AuditRequest`s to the
verifier device, verifies the signed transcripts it gets back, hands
each outcome back to whoever asked, and keeps exact counters for
compliance reporting, not a history of outcomes.  The counters live in
the auditor's own :class:`~repro.obs.metrics.MetricsRegistry`
(:attr:`ThirdPartyAuditor.metrics`): verdicts, flush sizes and failure
reasons are counted there once, and the reports read them back.  A
caller that wants a history keeps its own.

Every audit, whatever its entry point, runs through one protocol body
and one verdict body:

* :meth:`ThirdPartyAuditor._run_protocols` draws a fresh-nonce request
  per admitted order and runs the timed phases through one
  :meth:`~repro.cloud.verifier.VerifierDevice.run_audits` call, which
  signs nothing yet;
* :meth:`ThirdPartyAuditor._settle` has each verifier
  :meth:`~repro.cloud.verifier.VerifierDevice.seal` its runs in the
  flush, once per verifier, then verifies the transcripts in one
  :func:`~repro.core.verification.verify_transcripts` batch (shared MAC
  key schedules, one Schnorr check per distinct batch root) and counts
  each outcome.

So the device signs one tree per seal, and the TPA seals once per
verifier per flush: a fleet site's settle (the runs its batches staged
audit by audit, once :data:`~repro.fleet.fleet.RUNS_PER_SEAL` are
queued), or a daemon flush of one ``audit_deferred_many`` call,
carries one signed root.

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

from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.cloud.provider import CloudProvider
from repro.cloud.sla import SLAPolicy
from repro.cloud.verifier import AuditRun, VerifierDevice
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
from repro.geo.regions import Region
from repro.obs.metrics import MetricsRegistry
from repro.por.parameters import PORParams


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
    """A measured, unsealed protocol run awaiting its verdict.

    The deferred entry points return these; the caller holds them until
    it passes them to :meth:`ThirdPartyAuditor.flush_verdicts`.  It
    holds the verifier that ran the audit, the
    :class:`~repro.cloud.verifier.AuditRun` it returned (the run's
    handle and the timed phase's clock boundaries), the request, and
    the file's verification inputs: MAC key, POR parameters, region and
    timing budget.  The transcript does not exist yet; the flush has
    the verifier seal the run.  A run settles once, and flushing it
    again raises.
    """

    verifier: VerifierDevice
    run: AuditRun
    request: AuditRequest
    # repr=False: the MAC key must not surface in logs (CRY003).
    mac_key: bytes = field(repr=False)
    params: PORParams
    region: Region
    rtt_max_ms: float


class ThirdPartyAuditor:
    """Drives GeoProof audits on behalf of data owners.

    Outcomes go back to the caller (:meth:`audit`,
    :meth:`flush_verdicts`); the auditor keeps none of them, so its
    memory does not grow with the audits it settles.  The aggregate
    reports -- :meth:`acceptance_rate` and :meth:`failures_by_reason`
    -- read the counters in :attr:`metrics`, updated as outcomes are
    settled, so they cover the full audit history.
    """

    def __init__(self, name: str, rng: DeterministicRNG) -> None:
        self.name = name
        self._rng = rng
        self._files: dict[bytes, FileRecord] = {}
        #: This auditor's own registry: the one copy of its counts.
        self.metrics = MetricsRegistry()
        verdicts = self.metrics.counter(
            "repro_tpa_verdicts_total",
            "Verdicts settled by this auditor",
            ("tpa", "verdict"),
        )
        self._accepted = verdicts.labels(name, "accepted")
        self._rejected = verdicts.labels(name, "rejected")
        self._flush_size = self.metrics.histogram(
            "repro_tpa_flush_size",
            "Pending transcripts settled per verdict flush",
            ("tpa",),
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
        ).labels(name)
        # A rejected verdict may carry several reasons, so reasons get
        # their own family rather than a label on the verdict counter.
        self._failures = self.metrics.counter(
            "repro_tpa_failures_total",
            "Failure reasons across the verdicts this auditor rejected",
            ("tpa", "reason"),
        )
        obs.metrics().include(self.metrics)

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
    ) -> AuditOutcome:
        """Run one full audit and return its outcome: a batch of one.

        ``rtt_max_ms`` overrides the SLA-calibrated budget (used by the
        threshold-sweep benches) and ``region`` overrides the SLA's
        geographic clause (used when auditing replica sites, each of
        which has its own region); both default to the registered SLA.
        The timed phase runs on the verifier device's own clock (the
        fleet, which times each site on its lane clock, goes through
        :meth:`audit_deferred`).  Raises the order's error if it fails.
        """
        (outcome,) = self._settle([self.audit_deferred(
            file_id, verifier, provider,
            k=k, rtt_max_ms=rtt_max_ms, region=region,
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

        ``rtt_max_ms`` and ``region`` are as for :meth:`audit`.  The
        timed phase happens immediately on ``clock`` (the fleet passes
        a per-datacentre lane clock; default is the verifier device's
        own clock) -- deferral changes *when the TPA does its
        arithmetic*, never what the provider observes.  Pass the
        returned run to :meth:`flush_verdicts`.  Raises the order's
        error if it fails.
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
    ) -> list[PendingAudit | ReproError]:
        """Run a batch of ``(file_id, k)`` orders; one entry per order.

        ``k=None`` means the SLA minimum.  Each entry is the order's
        :class:`PendingAudit`, or the :class:`~repro.errors.ReproError`
        it failed with, and an order fails alone.  A refused order (see
        :meth:`make_request`) draws no nonce and never reaches the
        device.  Equivalent to calling :meth:`audit_deferred` once per
        order (pinned by test): the nonce stream advances in order and
        all timed rounds run back to back on the verifier's clock,
        against each file's registered SLA (an audit that needs another
        budget, region or clock goes through :meth:`audit_deferred`).
        The verifier amortizes challenge derivation and LAN arithmetic
        across the whole batch, and signs nothing until the runs are
        flushed.
        """
        return self._run_protocols(
            orders, verifier, provider, rtt_max_ms=None, region=None, clock=None
        )

    def flush_verdicts(self, pending: Sequence[PendingAudit]) -> list[AuditOutcome]:
        """Seal and verify these runs in one batch; return their outcomes.

        Each verifier seals its runs here, once per flush, so the runs
        one verifier measured share one signed root.  Outcomes come back
        in the order of ``pending`` and equal what :meth:`audit` would
        have returned for the same protocol runs apart from each
        transcript's batch proof and signature (pinned by test) -- the
        grouping only changes how the signing and the MAC and Schnorr
        arithmetic are batched.  Each run settles once: passing one
        that was already flushed raises
        :class:`~repro.errors.ConfigurationError` before any run of the
        flush is sealed or any verdict counted, whichever verifier
        measured it.
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
                verifier=verifier,
                run=run,
                request=request,
                mac_key=record.mac_key,
                params=record.params,
                region=region if region is not None else record.sla.region,
                rtt_max_ms=(
                    rtt_max_ms if rtt_max_ms is not None else record.sla.rtt_max_ms
                ),
            ))
        return entries

    def _settle(self, pending: Sequence[PendingAudit]) -> list[AuditOutcome]:
        """Seal, then verify protocol runs in one batch; count each outcome.

        Each verifier in ``pending`` seals its runs once, in order of
        first appearance, so a flush carries one signed root per
        verifier.  The jobs follow ``pending`` order and read each
        verifier's public key right after the seals, so it is the key
        the seal used.  Every verifier checks its handles before the
        first seal: a run that was already settled, or that appears
        twice, raises before any run is sealed or any verdict counted,
        so the flush spends nothing and its other runs stay settleable.
        """
        with obs.tracer().wall_span(f"tpa.flush:{self.name}"):
            by_verifier: dict[VerifierDevice, list[int]] = {}
            for position, entry in enumerate(pending):
                by_verifier.setdefault(entry.verifier, []).append(position)
            groups = [
                (verifier, positions,
                 [pending[position].run.handle for position in positions])
                for verifier, positions in by_verifier.items()
            ]
            for verifier, _, handles in groups:
                verifier.check_handles(handles)
            transcripts: dict[int, SignedTranscript] = {}
            for verifier, positions, handles in groups:
                transcripts.update(zip(positions, verifier.seal(handles)))
            jobs = [
                TranscriptVerification(
                    transcript=transcripts[position],
                    request=entry.request,
                    verifier_public_key=entry.verifier.public_key,
                    mac_key=entry.mac_key,
                    params=entry.params,
                    region=entry.region,
                    rtt_max_ms=entry.rtt_max_ms,
                )
                for position, entry in enumerate(pending)
            ]
            verdicts = verify_transcripts(jobs)
        self._flush_size.observe(len(pending))
        n_accepted = 0
        outcomes: list[AuditOutcome] = []
        for entry, job, verdict in zip(pending, jobs, verdicts):
            outcome = AuditOutcome(
                request=entry.request,
                transcript=job.transcript,
                verdict=verdict,
                started_ms=entry.run.started_ms,
                finished_ms=entry.run.finished_ms,
            )
            n_accepted += verdict.accepted
            for reason in verdict.failure_reasons:
                self._failures.labels(self.name, reason).inc()
            outcomes.append(outcome)
        self._accepted.inc(n_accepted)
        self._rejected.inc(len(outcomes) - n_accepted)
        return outcomes

    # -- reporting ------------------------------------------------------------

    def acceptance_rate(self) -> float:
        """Fraction of all settled audits that were accepted.

        Counted over the full audit history.  By convention a TPA that
        has settled nothing reads ``0.0`` -- it has proven nothing, so
        reports must not read as a perfect record.
        """
        n_accepted = self._accepted.value
        n_settled = n_accepted + self._rejected.value
        if n_settled == 0:
            return 0.0
        return n_accepted / n_settled

    def failures_by_reason(self) -> dict[str, int]:
        """Histogram of failure reasons across the full audit history.

        One count per reason a rejected verdict carries, in the order
        the reasons were first seen: the ``repro_tpa_failures_total``
        series.
        """
        return {
            reason: int(child.value)
            for (_, reason), child in self._failures.items()
        }
