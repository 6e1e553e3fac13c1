"""The pipelined audit plane: size-or-deadline batching over the TPA.

Orders from every connection land on one shared queue; the dispatcher
collects them into a batch and flushes when either trigger fires:

* **size** -- ``flush_batch`` orders are waiting, or
* **deadline** -- ``flush_ms`` of wall time passed since the batch
  opened (a lone order is never parked indefinitely).

One flush is one call into the TPA's one protocol body and one into
its one verdict body -- the same bodies a one-shot
:meth:`~repro.cloud.tpa.ThirdPartyAuditor.audit` runs as a batch of
one.  :meth:`~repro.cloud.tpa.ThirdPartyAuditor.audit_deferred_many`
runs every order of the flush (one ``prf_many`` call derives every
challenge/jitter stream) and returns one entry per order: a pending
run, or the error that order failed with.
:meth:`~repro.cloud.tpa.ThirdPartyAuditor.flush_verdicts` then has the
verifier seal the runs that completed (one signed hash-tree root) and
settles them (one MAC sweep per key group, one Schnorr check per batch
root).  Orders fail alone: an unknown file or an
out-of-range ``k`` is refused before a nonce is drawn, and a backend
failure fails only the order whose lookup it hit.  Orders are processed
in strict submission order -- the TPA's nonce stream advances exactly
as the scalar reference audit (``make_request``,
``VerifierDevice.run_audit``, ``verify_transcript``, one order at a
time) would advance it, which is what makes daemon and reference
verdicts request-for-request identical (pinned by test and CI-gated by
``benchmarks/bench_daemon.py``).

:meth:`AuditDispatcher.process_batch` is the synchronous core (tests
and the benchmark drive it directly); :meth:`AuditDispatcher.run` is
the asyncio loop the daemon mounts it on.
"""

from __future__ import annotations

import asyncio
import logging
from collections import deque
from dataclasses import dataclass
from typing import Protocol, Sequence

from repro import obs
from repro.cloud.tpa import ThirdPartyAuditor
from repro.cloud.verifier import VerifierDevice
from repro.errors import ConfigurationError, ReproError
from repro.obs.metrics import HistogramValue, MetricsRegistry
from repro.service.framing import encode_frame
from repro.service.wire import AuditOrder, ErrorReply, VerdictReply
from repro.util.wallclock import wall_seconds

#: Queue sentinel: stop after draining what is already buffered.
SHUTDOWN = object()

_log = logging.getLogger(__name__)

#: Orders-per-flush histogram bounds (flush_batch rarely exceeds 256).
FLUSH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Frame-to-verdict wall-latency bounds in milliseconds.
LATENCY_MS_BUCKETS = (
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    1000.0,
)


class ReplySink(Protocol):
    """Where a connection's replies go (the daemon's connection object)."""

    def send_bytes(self, data: bytes) -> None: ...


@dataclass(frozen=True, slots=True)
class Submitted:
    """One order plus the connection awaiting its reply.

    ``received_s`` is the wall-clock instant the order's TCP chunk was
    read (0.0 when the submitter does not track latency, e.g. direct
    ``process_batch`` callers); the dispatcher turns it into the
    frame-to-verdict latency histogram at delivery time.
    """

    order: AuditOrder
    sink: ReplySink
    received_s: float = 0.0


class DispatchStats:
    """Counters the benchmark, soak job and ``OP_STATS`` probes read.

    The dispatcher's five ``repro_dispatch_*`` series live in
    :attr:`metrics`, this object's own registry, and nowhere else: the
    counts read back as ints, and ``flush_sizes`` and ``latency_ms``
    are the exported histograms' bounded
    :class:`~repro.obs.metrics.HistogramValue`\\ s -- a daemon that
    serves millions of orders holds a fixed few hundred bytes of
    stats, not an ever-growing list.
    """

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self._orders = self.metrics.counter(
            "repro_dispatch_orders_total",
            "Audit orders processed by the dispatcher",
        ).labels()
        self._errors = self.metrics.counter(
            "repro_dispatch_errors_total",
            "Orders answered with an ErrorReply",
        ).labels()
        self._flushes = self.metrics.counter(
            "repro_dispatch_flushes_total",
            "Dispatcher batch flushes through the TPA",
        ).labels()
        self.flush_sizes: HistogramValue = self.metrics.histogram(
            "repro_dispatch_flush_size",
            "Orders per dispatcher flush",
            buckets=FLUSH_SIZE_BUCKETS,
        ).labels().value
        self.latency_ms: HistogramValue = self.metrics.histogram(
            "repro_dispatch_latency_ms",
            "Frame-to-verdict wall latency per order",
            buckets=LATENCY_MS_BUCKETS,
        ).labels().value
        obs.metrics().include(self.metrics)

    @property
    def n_orders(self) -> int:
        return int(self._orders.value)

    @property
    def n_errors(self) -> int:
        return int(self._errors.value)

    @property
    def n_flushes(self) -> int:
        return int(self._flushes.value)

    def count_flush(self, n_orders: int, n_errors: int) -> None:
        """Count one flush of ``n_orders``, ``n_errors`` of them refused."""
        self._orders.inc(n_orders)
        self._errors.inc(n_errors)
        self._flushes.inc()
        self.flush_sizes.observe(n_orders)

    def to_dict(self) -> dict:
        """Stable JSON-ready form (the ``OP_STATS`` payload core)."""
        return {
            "n_orders": self.n_orders,
            "n_errors": self.n_errors,
            "n_flushes": self.n_flushes,
            "flush_sizes": self.flush_sizes.to_dict(),
            "latency_ms": self.latency_ms.to_dict(),
            "latency_p50_ms": self.latency_ms.quantile(0.5),
            "latency_p99_ms": self.latency_ms.quantile(0.99),
        }


class AuditDispatcher:
    """Batches audit orders through the TPA's deferred-verify plane."""

    def __init__(
        self,
        *,
        tpa: ThirdPartyAuditor,
        verifier: VerifierDevice,
        provider,
        flush_batch: int = 64,
        flush_ms: float = 5.0,
    ) -> None:
        if flush_batch < 1:
            raise ConfigurationError(
                f"flush_batch must be >= 1, got {flush_batch}"
            )
        if flush_ms <= 0:
            raise ConfigurationError(f"flush_ms must be > 0, got {flush_ms}")
        self.tpa = tpa
        self.verifier = verifier
        self.provider = provider
        self.flush_batch = flush_batch
        self.flush_ms = flush_ms
        self.stats = DispatchStats()

    # -- synchronous core ----------------------------------------------

    def process_batch(
        self, orders: Sequence[AuditOrder]
    ) -> list[VerdictReply | ErrorReply]:
        """Audit one batch; one reply per order, in submission order.

        ``k=0`` in an order means the SLA minimum.  An order the TPA
        refuses or the device fails is answered with an
        :class:`ErrorReply` carrying the error's text, and only that
        order: every other order gets the verdict the scalar reference
        audit gives it.

        Anything else the flush raises (a backend bug, say) is
        contained here: the traceback is logged once and every order
        of the flush is answered with an :class:`ErrorReply` naming the
        exception type, so the daemon keeps serving.
        """
        try:
            entries = self.tpa.audit_deferred_many(
                [(order.file_id, order.k or None) for order in orders],
                self.verifier,
                self.provider,
            )
            outcomes = iter(self.tpa.flush_verdicts(
                [entry for entry in entries if not isinstance(entry, ReproError)]
            ))
        except Exception as exc:
            _log.exception("audit flush of %d orders failed", len(orders))
            reason = f"flush failed: {type(exc).__name__}"
            self.stats.count_flush(len(orders), len(orders))
            return [ErrorReply(order.order_id, reason) for order in orders]
        replies: list[VerdictReply | ErrorReply] = []
        n_errors = 0
        for order, entry in zip(orders, entries):
            if isinstance(entry, ReproError):
                replies.append(ErrorReply(order.order_id, str(entry)))
                n_errors += 1
            else:
                replies.append(VerdictReply(order.order_id, next(outcomes).verdict))
        self.stats.count_flush(len(orders), n_errors)
        return replies

    # -- asyncio loop ---------------------------------------------------

    async def run(self, queue: asyncio.Queue) -> None:
        """Consume submissions until :data:`SHUTDOWN`, then drain.

        Queue items are *lists* of :class:`Submitted` (one list per
        TCP chunk a reader parsed), so queue traffic is amortized the
        same way frame parsing is.
        """
        loop = asyncio.get_running_loop()
        carry: deque[Submitted] = deque()
        stopping = False
        while True:
            if not carry:
                if stopping:
                    return
                item = await queue.get()
                if item is SHUTDOWN:
                    stopping = True
                    continue
                carry.extend(item)
            deadline_s = loop.time() + self.flush_ms / 1000.0
            while not stopping and len(carry) < self.flush_batch:
                try:
                    item = queue.get_nowait()
                except asyncio.QueueEmpty:
                    remaining_s = deadline_s - loop.time()
                    if remaining_s <= 0:
                        break
                    try:
                        item = await asyncio.wait_for(
                            queue.get(), remaining_s
                        )
                    except asyncio.TimeoutError:
                        break
                if item is SHUTDOWN:
                    stopping = True
                    break
                carry.extend(item)
            batch = [
                carry.popleft()
                for _ in range(min(self.flush_batch, len(carry)))
            ]
            replies = self.process_batch([entry.order for entry in batch])
            self._deliver(batch, replies)

    def _deliver(
        self,
        batch: list[Submitted],
        replies: list[VerdictReply | ErrorReply],
    ) -> None:
        """Group one flush's replies into one write per connection.

        This is where an order's life ends, so it is also where the
        frame-to-verdict latency is observed (one ``wall_seconds``
        read per flush, not per order).
        """
        now_s = wall_seconds()
        by_sink: dict[int, tuple[ReplySink, list[bytes]]] = {}
        for entry, reply in zip(batch, replies):
            if entry.received_s > 0.0:
                elapsed_ms = (now_s - entry.received_s) * 1000.0
                self.stats.latency_ms.observe(elapsed_ms)
            key = id(entry.sink)
            if key not in by_sink:
                by_sink[key] = (entry.sink, [])
            by_sink[key][1].append(encode_frame(reply.to_wire()))
        for sink, frames in by_sink.values():
            sink.send_bytes(b"".join(frames))
