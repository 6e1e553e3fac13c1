"""The asyncio TPA daemon.

One :class:`AuditDaemon` owns a TPA + verifier + storage plane and
serves audit orders over localhost TCP.  Per connection, a **reader
task** parses frames off the socket and submits decoded orders (one
queue put per TCP chunk) and a **writer task** drains that
connection's reply queue (one write per burst); the shared
:class:`~repro.service.dispatch.AuditDispatcher` sits between them and
flushes batches through the TPA's amortized protocol + verify plane.

Fail-closed input handling: a malformed frame or order gets one
:class:`~repro.service.wire.ErrorReply` and the connection is dropped
-- the daemon itself never dies on tenant input (pinned by test).

Clean shutdown (:meth:`AuditDaemon.stop`) stops accepting, lets the
dispatcher drain every submitted order, flushes every connection's
replies, then closes sockets and awaits every task it spawned -- a
stopped daemon leaks nothing (the soak test asserts the event loop is
empty afterwards).
"""

from __future__ import annotations

import asyncio

from repro import obs
from repro.cloud.tpa import ThirdPartyAuditor
from repro.cloud.verifier import VerifierDevice
from repro.errors import ConfigurationError, ProtocolError
from repro.obs.metrics import MetricsRegistry
from repro.service.dispatch import SHUTDOWN, AuditDispatcher, Submitted
from repro.service.framing import FrameParser, encode_frame
from repro.service.registry import ProviderRegistry
from repro.service.wire import (
    ErrorReply,
    StatsReply,
    StatsRequest,
    decode_request,
)
from repro.util.wallclock import wall_seconds

#: Reply-queue sentinel: flush what is queued, then close the socket.
_CLOSE = object()

#: One socket read's worth of bytes; frames are parsed per chunk.
_READ_BYTES = 1 << 16

#: Bound on submissions waiting for the dispatcher; a full queue makes
#: readers wait, which pushes back on the sockets.
_QUEUE_LIMIT = 1024


class _Connection:
    """One tenant socket: a reader task, a writer task, a reply queue."""

    def __init__(
        self,
        daemon: "AuditDaemon",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._daemon = daemon
        self._reader = reader
        self._writer = writer
        self._replies: asyncio.Queue = asyncio.Queue()
        self._closing = False

    def send_bytes(self, data: bytes) -> None:
        """Queue encoded reply frames (dispatcher -> writer task)."""
        if not self._closing:
            self._replies.put_nowait(data)

    def begin_close(self) -> None:
        """Stop accepting replies and let the writer flush out."""
        if not self._closing:
            self._closing = True
            self._replies.put_nowait(_CLOSE)

    async def read_loop(self) -> None:
        """Parse frames off the socket until EOF or a protocol error.

        Stats probes (:class:`~repro.service.wire.StatsRequest`) are
        answered inline from here -- they never enter the dispatch
        queue, so ``repro stats`` gets an answer even when the audit
        plane is saturated and the queue is applying backpressure.
        """
        parser = FrameParser()
        try:
            while True:
                chunk = await self._reader.read(_READ_BYTES)
                if not chunk:
                    break
                received_s = wall_seconds()
                try:
                    submitted = []
                    for body in parser.feed(chunk):
                        request = decode_request(body)
                        if isinstance(request, StatsRequest):
                            reply = StatsReply(
                                request.order_id,
                                self._daemon.stats_payload(),
                            )
                            self.send_bytes(encode_frame(reply.to_wire()))
                        else:
                            submitted.append(
                                Submitted(request, self, received_s)
                            )
                except ProtocolError as exc:
                    # Fail closed: report once, then drop the
                    # connection -- resynchronising a corrupt stream
                    # would mean guessing at frame boundaries.
                    self.send_bytes(
                        encode_frame(ErrorReply(0, str(exc)).to_wire())
                    )
                    break
                if submitted:
                    await self._daemon._submissions.put(submitted)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._daemon._reader_done(self)

    async def write_loop(self) -> None:
        """Drain the reply queue in bursts; one drain per burst."""
        try:
            while True:
                data = await self._replies.get()
                closing = data is _CLOSE
                parts = [] if closing else [data]
                while True:
                    try:
                        extra = self._replies.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if extra is _CLOSE:
                        closing = True
                    else:
                        parts.append(extra)
                if parts:
                    self._writer.write(b"".join(parts))
                    await self._writer.drain()
                if closing:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class AuditDaemon:
    """GeoProof-as-a-service: the TPA behind a localhost TCP socket."""

    def __init__(
        self,
        *,
        tpa: ThirdPartyAuditor,
        verifier: VerifierDevice,
        provider,
        host: str = "127.0.0.1",
        port: int = 0,
        flush_batch: int = 64,
        flush_ms: float = 5.0,
    ) -> None:
        self.host = host
        self.port = port
        self.dispatcher = AuditDispatcher(
            tpa=tpa,
            verifier=verifier,
            provider=provider,
            flush_batch=flush_batch,
            flush_ms=flush_ms,
        )
        self._server: asyncio.AbstractServer | None = None
        self._submissions: asyncio.Queue | None = None
        self._dispatch_task: asyncio.Task | None = None
        self._connections: dict[int, _Connection] = {}
        self._tasks: set[asyncio.Task] = set()
        #: The daemon's own registry: gauges sampled at each stats probe.
        self.metrics = MetricsRegistry()
        self._queue_depth = self.metrics.gauge(
            "repro_daemon_queue_depth",
            "Submission-queue depth sampled at each stats probe",
        )
        self._connections_gauge = self.metrics.gauge(
            "repro_daemon_connections",
            "Open tenant connections sampled at each stats probe",
        )
        obs.metrics().include(self.metrics)

    @property
    def stats(self):
        """The dispatcher's counters (orders, flushes, batch sizes)."""
        return self.dispatcher.stats

    def stats_payload(self) -> dict:
        """The live ``OP_STATS`` answer: dispatch counters + daemon state.

        Queue depth counts submission-queue entries (lists of decoded
        orders, one per TCP chunk) still waiting for the dispatcher.
        """
        payload = self.dispatcher.stats.to_dict()
        queue_depth = (
            self._submissions.qsize() if self._submissions is not None else 0
        )
        payload["queue_depth"] = queue_depth
        payload["n_connections"] = len(self._connections)
        self._queue_depth.set(queue_depth)
        self._connections_gauge.set(len(self._connections))
        return payload

    async def start(self) -> None:
        """Bind the socket and start the dispatch loop.

        With ``port=0`` the OS picks a free port; :attr:`port` holds
        the bound one afterwards (how tests and the benchmark avoid
        port collisions).  A :class:`~repro.service.ProviderRegistry`
        provider has every backend's chain resolved first, so a
        fallback that was never added raises its
        :class:`~repro.errors.ConfigurationError` here, before any task
        or socket exists, instead of failing every order.
        """
        if self._server is not None:
            raise ConfigurationError("daemon already started")
        provider = self.dispatcher.provider
        if isinstance(provider, ProviderRegistry):
            for name in provider.names():
                provider.chain(name)
        # The submission queue is the backpressure boundary: when the
        # dispatcher falls behind, reader tasks block on put() and TCP
        # flow control pushes back on the tenants.
        self._submissions = asyncio.Queue(maxsize=_QUEUE_LIMIT)
        self._dispatch_task = asyncio.create_task(
            self.dispatcher.run(self._submissions), name="geoproof-dispatch"
        )
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(self, reader, writer)
        self._connections[id(connection)] = connection
        for coroutine, label in (
            (connection.read_loop(), "geoproof-read"),
            (connection.write_loop(), "geoproof-write"),
        ):
            task = asyncio.create_task(coroutine, name=label)
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    def _reader_done(self, connection: _Connection) -> None:
        """A connection stopped sending; flush replies then close it."""
        connection.begin_close()
        self._connections.pop(id(connection), None)
        task = asyncio.create_task(connection.close(), name="geoproof-close")
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def stop(self) -> None:
        """Graceful shutdown: drain, reply, close, await everything."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        # Let the dispatcher answer everything already submitted...
        if self._submissions is None or self._dispatch_task is None:
            raise ConfigurationError("daemon was never started")
        await self._submissions.put(SHUTDOWN)
        await self._dispatch_task
        self._dispatch_task = None
        # ...then flush and close the surviving connections.
        for connection in list(self._connections.values()):
            connection.begin_close()
            self._reader_done(connection)
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        self._tasks.clear()
        self._connections.clear()
