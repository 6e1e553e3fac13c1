"""The asyncio daemon end to end: TCP round-trips, hostile input, soak.

No pytest-asyncio in the toolchain, so every test drives its own event
loop with ``asyncio.run`` -- which doubles as the leak check: a fresh
loop must be empty of foreign tasks after ``daemon.stop()``.
"""

import asyncio
import logging
import struct
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.session import GeoProofSession
from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError
from repro.geo.coords import GeoPoint
from repro.por.parameters import TEST_PARAMS
from repro.service import (
    AuditClient,
    AuditDaemon,
    AuditServiceError,
    FrameParser,
    ProviderRegistry,
    encode_frame,
    run_audit_client,
)
from repro.service.wire import (
    OP_AUDIT,
    AuditOrder,
    ErrorReply,
    VerdictReply,
    decode_reply,
)
from repro.storage.contract import InMemoryStorage
from repro.util.serialization import encode_length_prefixed, encode_uint
from tests.conftest import scalar_audit


def build_session(seed="daemon", n_files=3):
    session = GeoProofSession.build(
        datacentre_location=GeoPoint(-27.4698, 153.0251),
        params=TEST_PARAMS,
        min_rounds=4,
        seed=seed,
    )
    rng = DeterministicRNG(seed + "-data")
    file_ids = []
    for i in range(n_files):
        file_id = f"file-{i}".encode()
        session.outsource(file_id, rng.fork(str(i)).random_bytes(4000))
        file_ids.append(file_id)
    return session, file_ids


def build_daemon(session, **kwargs):
    kwargs.setdefault("flush_batch", 16)
    return AuditDaemon(
        tpa=session.tpa,
        verifier=session.verifier,
        provider=session.provider,
        **kwargs,
    )


def leaked_tasks():
    return [
        task
        for task in asyncio.all_tasks()
        if task is not asyncio.current_task()
    ]


class TestRoundTrip:
    def test_single_audit_over_tcp(self):
        session, file_ids = build_session()

        async def run():
            daemon = build_daemon(session)
            await daemon.start()
            try:
                async with AuditClient("127.0.0.1", daemon.port) as client:
                    return await client.audit(file_ids[0], k=4)
            finally:
                await daemon.stop()

        verdict = asyncio.run(run())
        assert verdict.accepted

    def test_pipelined_batch_matches_scalar(self):
        scalar_session, file_ids = build_session()
        plan = [(file_ids[i % 3], 3 + (i % 2)) for i in range(30)]
        scalar = [
            scalar_audit(
                scalar_session.tpa,
                f,
                scalar_session.verifier,
                scalar_session.provider,
                k=k,
            ).verdict
            for f, k in plan
        ]

        daemon_session, _ = build_session()

        async def run():
            daemon = build_daemon(daemon_session, flush_batch=7)
            await daemon.start()
            try:
                async with AuditClient("127.0.0.1", daemon.port) as client:
                    return await client.audit_many(plan)
            finally:
                await daemon.stop()

        assert asyncio.run(run()) == scalar

    def test_many_concurrent_clients(self):
        session, file_ids = build_session()

        async def run():
            daemon = build_daemon(session)
            await daemon.start()

            async def one_client(offset):
                async with AuditClient("127.0.0.1", daemon.port) as client:
                    plan = [
                        (file_ids[(offset + i) % 3], 3) for i in range(10)
                    ]
                    return await client.audit_many(plan)

            try:
                results = await asyncio.gather(
                    *(one_client(i) for i in range(8))
                )
            finally:
                await daemon.stop()
            return results

        results = asyncio.run(run())
        assert len(results) == 8
        assert all(v.accepted for batch in results for v in batch)

    def test_unserviceable_order_raises_service_error(self):
        session, file_ids = build_session()

        async def run():
            daemon = build_daemon(session)
            await daemon.start()
            try:
                async with AuditClient("127.0.0.1", daemon.port) as client:
                    ok = await client.audit(file_ids[0], k=3)
                    with pytest.raises(AuditServiceError):
                        await client.audit(b"no-such-file", k=3)
                    return ok
            finally:
                await daemon.stop()

        assert asyncio.run(run()).accepted

    def test_run_audit_client_sync_helper(self):
        session, file_ids = build_session()

        async def serve(ready, done):
            daemon = build_daemon(session)
            await daemon.start()
            ready.set_result(daemon.port)
            await done
            await daemon.stop()

        def client_thread(port):
            return run_audit_client(
                "127.0.0.1", port, [(file_ids[0], 3), (file_ids[1], 4)]
            )

        async def run():
            loop = asyncio.get_running_loop()
            ready = loop.create_future()
            done = loop.create_future()
            server_task = asyncio.create_task(serve(ready, done))
            port = await ready
            # run_audit_client spins its own loop; host it off-thread.
            verdicts = await asyncio.to_thread(client_thread, port)
            done.set_result(None)
            await server_task
            return verdicts

        verdicts = asyncio.run(run())
        assert [v.accepted for v in verdicts] == [True, True]


class TestHostileInput:
    def test_garbage_frame_gets_error_reply_and_drop(self):
        session, file_ids = build_session()

        async def run():
            daemon = build_daemon(session)
            await daemon.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", daemon.port
                )
                writer.write(encode_frame(b"\xff garbage opcode"))
                await writer.drain()
                raw = await reader.read(1 << 16)
                assert (await reader.read(1)) == b""  # daemon dropped us
                writer.close()
                await writer.wait_closed()

                # ...but the daemon survives for the next tenant.
                async with AuditClient("127.0.0.1", daemon.port) as client:
                    verdict = await client.audit(file_ids[0], k=3)
                return raw, verdict
            finally:
                await daemon.stop()

        raw, verdict = asyncio.run(run())
        (body,) = FrameParser().feed(raw)
        reply = decode_reply(body)
        assert isinstance(reply, ErrorReply)
        assert reply.order_id == 0
        assert verdict.accepted

    def test_oversize_declared_frame_dropped_immediately(self):
        session, _ = build_session(n_files=1)

        async def run():
            daemon = build_daemon(session)
            await daemon.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", daemon.port
                )
                writer.write(struct.pack(">I", 1 << 30))
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(1 << 16), timeout=5)
                assert (await reader.read(1)) == b""
                writer.close()
                await writer.wait_closed()
                return raw
            finally:
                await daemon.stop()

        raw = asyncio.run(run())
        (body,) = FrameParser().feed(raw)
        assert isinstance(decode_reply(body), ErrorReply)

    def test_file_id_past_the_storage_bound_spares_other_tenants(self):
        """An order naming a 300 kB file id is a protocol error.

        Before, the order reached the TPA, whose refusal repeats the id
        at up to 4 characters a byte: its ErrorReply outgrew a frame,
        the dispatch task died, the next tenant got no reply and
        ``stop()`` re-raised.
        """
        session, file_ids = build_session(n_files=1)
        hostile = encode_frame(
            bytes([OP_AUDIT])
            + encode_uint(1)
            + encode_length_prefixed(b"\xff" * 300_000)
            + encode_uint(0)
        )

        async def run():
            daemon = build_daemon(session)
            await daemon.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", daemon.port
                )
                writer.write(hostile)
                await writer.drain()
                # The daemon answers, then drops the connection.
                raw = await asyncio.wait_for(reader.read(), timeout=3)
                writer.close()
                await writer.wait_closed()
                async with AuditClient("127.0.0.1", daemon.port) as client:
                    verdict = await asyncio.wait_for(
                        client.audit(file_ids[0], k=3), timeout=3
                    )
            finally:
                await asyncio.wait_for(daemon.stop(), timeout=5)
            return raw, verdict, daemon.stats, leaked_tasks()

        raw, verdict, stats, leaked = asyncio.run(run())
        (body,) = FrameParser().feed(raw)
        reply = decode_reply(body)
        assert isinstance(reply, ErrorReply)
        assert reply.order_id == 0
        assert "file id must be 1..256 bytes" in reply.message
        assert verdict.accepted
        assert (stats.n_orders, stats.n_errors) == (1, 0)
        assert leaked == []

    def test_truncated_frame_never_hangs_shutdown(self):
        session, _ = build_session(n_files=1)

        async def run():
            daemon = build_daemon(session)
            await daemon.start()
            _reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port
            )
            # Half a frame, then silence: stop() must not wait for the
            # rest of the body to arrive.
            writer.write(encode_frame(b"x" * 100)[:40])
            await writer.drain()
            await asyncio.sleep(0.05)
            await asyncio.wait_for(daemon.stop(), timeout=5)
            writer.close()
            return leaked_tasks()

        assert asyncio.run(run()) == []


async def pause_dispatcher(daemon):
    """Cancel the daemon's dispatch task: orders queue but nobody flushes."""
    daemon._dispatch_task.cancel()
    with pytest.raises(asyncio.CancelledError):
        await daemon._dispatch_task


def resume_dispatcher(daemon):
    daemon._dispatch_task = asyncio.create_task(
        daemon.dispatcher.run(daemon._submissions)
    )


async def read_frames(reader, n):
    """Read until ``n`` whole frames have arrived; decode them."""
    parser, bodies = FrameParser(), []
    while len(bodies) < n:
        data = await asyncio.wait_for(reader.read(1 << 16), timeout=5)
        assert data, "connection closed early"
        bodies.extend(parser.feed(data))
    return [decode_reply(body) for body in bodies]


async def order_ids_to_eof(reader):
    raw = await asyncio.wait_for(reader.read(), timeout=5)
    return [decode_reply(body).order_id for body in FrameParser().feed(raw)]


class TestHalfClose:
    """A tenant that half-closes still gets one reply per order.

    Before, the reader's EOF closed the connection at once, so every
    reply the dispatcher had not yet delivered was dropped.
    """

    def test_orders_then_eof_get_every_reply(self):
        session, file_ids = build_session()
        orders = [AuditOrder(i + 1, file_ids[i % 3], 3) for i in range(8)]

        async def run():
            daemon = build_daemon(session)
            await daemon.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port
            )
            writer.write(b"".join(encode_frame(o.to_wire()) for o in orders))
            writer.write_eof()
            order_ids = await order_ids_to_eof(reader)
            writer.close()
            await writer.wait_closed()
            await daemon.stop()
            return order_ids, daemon.stats.n_orders, leaked_tasks()

        order_ids, n_orders, leaked = asyncio.run(run())
        assert order_ids == list(range(1, 9))
        assert n_orders == 8
        assert leaked == []

    def test_eof_before_the_dispatcher_answers(self):
        session, file_ids = build_session()
        orders = [AuditOrder(i + 1, file_ids[i % 3], 3) for i in range(4)]

        async def run():
            daemon = build_daemon(session)
            await daemon.start()
            await pause_dispatcher(daemon)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port
            )
            writer.write(b"".join(encode_frame(o.to_wire()) for o in orders))
            writer.write_eof()
            await asyncio.sleep(0.1)  # the daemon has read the EOF
            resume_dispatcher(daemon)
            order_ids = await order_ids_to_eof(reader)
            writer.close()
            await writer.wait_closed()
            await daemon.stop()
            return order_ids, leaked_tasks()

        order_ids, leaked = asyncio.run(run())
        assert order_ids == [1, 2, 3, 4]
        assert leaked == []

    def test_protocol_error_replies_at_once_and_closes_after_owed(self):
        session, file_ids = build_session()
        orders = [AuditOrder(i + 1, file_ids[i % 3], 3) for i in range(4)]

        async def run():
            daemon = build_daemon(session)
            await daemon.start()
            await pause_dispatcher(daemon)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port
            )
            writer.write(b"".join(encode_frame(o.to_wire()) for o in orders))
            await writer.drain()
            for _ in range(500):  # up to 5 s for the orders to queue
                if not daemon._submissions.empty():
                    break
                await asyncio.sleep(0.01)
            assert not daemon._submissions.empty()
            writer.write(encode_frame(b"\xff garbage opcode"))
            await writer.drain()
            # The error goes out while the four orders are still owed.
            (error,) = await read_frames(reader, 1)
            resume_dispatcher(daemon)
            order_ids = await order_ids_to_eof(reader)
            writer.close()
            await writer.wait_closed()
            await daemon.stop()
            return error, order_ids, leaked_tasks()

        error, order_ids, leaked = asyncio.run(run())
        assert isinstance(error, ErrorReply) and error.order_id == 0
        assert order_ids == [1, 2, 3, 4]
        assert leaked == []


#: Bad frames that end a connection: an unknown opcode, and a length
#: prefix declaring 2^30 bytes.
BAD_FRAMES = {
    "garbage": encode_frame(b"\xff garbage opcode"),
    "oversize": struct.pack(">I", 1 << 30),
}


def replies_to_split_stream(session, stream, cut):
    """Send ``stream`` as two writes split at ``cut``, the dispatcher
    paused until the error reply is out; every reply, up to EOF."""

    async def run():
        daemon = build_daemon(session)
        await daemon.start()
        await pause_dispatcher(daemon)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", daemon.port
        )
        for part in (stream[:cut], stream[cut:]):
            writer.write(part)
            await writer.drain()
        # The error goes out once the bad frame is read, and every
        # order ahead of it has been queued by then.
        (error,) = await read_frames(reader, 1)
        resume_dispatcher(daemon)
        raw = await asyncio.wait_for(reader.read(), timeout=5)
        writer.close()
        await writer.wait_closed()
        await daemon.stop()
        rest = [decode_reply(body) for body in FrameParser().feed(raw)]
        return [error] + rest, daemon.stats.n_orders, leaked_tasks()

    return asyncio.run(run())


class TestOrdersAheadOfABadFrame:
    """Orders ahead of a bad frame are answered however TCP split them.

    Before, orders that shared a chunk with the bad frame were dropped
    unanswered, while the same orders in an earlier chunk were served.
    """

    @pytest.mark.parametrize("bad", sorted(BAD_FRAMES))
    def test_same_chunk_orders_get_their_verdicts(self, bad):
        session, file_ids = build_session(n_files=1)
        orders = [AuditOrder(i + 1, file_ids[0], 3) for i in range(2)]
        stream = b"".join(encode_frame(o.to_wire()) for o in orders)
        stream += BAD_FRAMES[bad]
        replies, n_orders, leaked = replies_to_split_stream(
            session, stream, len(stream)
        )
        assert isinstance(replies[0], ErrorReply)
        assert replies[0].order_id == 0
        assert [reply.order_id for reply in replies[1:]] == [1, 2]
        assert all(reply.verdict.accepted for reply in replies[1:])
        assert n_orders == 2
        assert leaked == []

    @given(
        n_orders=st.integers(1, 3),
        bad=st.sampled_from(sorted(BAD_FRAMES)),
        data=st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_split_gets_the_same_replies(self, n_orders, bad, data):
        session, file_ids = build_session(n_files=1)
        orders = [AuditOrder(i + 1, file_ids[0], 3) for i in range(n_orders)]
        stream = b"".join(encode_frame(o.to_wire()) for o in orders)
        stream += BAD_FRAMES[bad]
        cut = data.draw(st.integers(0, len(stream)), label="cut")
        replies, counted, leaked = replies_to_split_stream(
            session, stream, cut
        )
        assert [type(reply) for reply in replies] == (
            [ErrorReply] + [VerdictReply] * n_orders
        )
        assert [reply.order_id for reply in replies] == (
            [0] + list(range(1, n_orders + 1))
        )
        assert counted == n_orders
        assert leaked == []


class TestStats:
    def test_stats_op_reports_live_dispatch_state(self):
        session, file_ids = build_session()

        async def run():
            daemon = build_daemon(session)
            await daemon.start()
            try:
                async with AuditClient("127.0.0.1", daemon.port) as client:
                    plan = [(file_ids[i % 3], 3) for i in range(30)]
                    verdicts = await client.audit_many(plan)
                    stats = await client.stats()
            finally:
                await daemon.stop()
            return verdicts, stats

        verdicts, stats = asyncio.run(run())
        assert all(v.accepted for v in verdicts)
        # The live payload carries the whole dispatch picture: totals,
        # queue depth, the flush-size histogram, latency quantiles.
        assert stats["n_orders"] == 30
        assert stats["n_errors"] == 0
        assert stats["n_flushes"] >= 1
        assert stats["queue_depth"] >= 0
        assert stats["n_connections"] >= 1
        assert stats["flush_sizes"]["count"] == stats["n_flushes"]
        assert stats["flush_sizes"]["sum"] == 30
        assert stats["latency_ms"]["count"] == 30
        assert (
            stats["latency_p50_ms"]
            <= stats["latency_p99_ms"]
            <= stats["latency_ms"]["max"]
        )

    def test_stats_answered_before_any_audit(self):
        session, _ = build_session(n_files=1)

        async def run():
            daemon = build_daemon(session)
            await daemon.start()
            try:
                async with AuditClient("127.0.0.1", daemon.port) as client:
                    return await client.stats()
            finally:
                await daemon.stop()

        stats = asyncio.run(run())
        assert stats["n_orders"] == 0
        assert stats["latency_p99_ms"] == 0.0

    def test_fetch_daemon_stats_sync_helper(self):
        from repro.service import fetch_daemon_stats

        session, file_ids = build_session()

        async def serve(ready, done):
            daemon = build_daemon(session)
            await daemon.start()
            ready.set_result(daemon.port)
            await done
            await daemon.stop()

        async def run():
            loop = asyncio.get_running_loop()
            ready = loop.create_future()
            done = loop.create_future()
            server_task = asyncio.create_task(serve(ready, done))
            port = await ready
            verdicts, stats = await asyncio.to_thread(
                run_audit_client,
                "127.0.0.1",
                port,
                [(file_ids[0], 3)],
                stats=True,
            )
            probe = await asyncio.to_thread(
                fetch_daemon_stats, "127.0.0.1", port
            )
            done.set_result(None)
            await server_task
            return verdicts, stats, probe

        verdicts, stats, probe = asyncio.run(run())
        assert [v.accepted for v in verdicts] == [True]
        # Stats ride the same connection after the verdicts, so the
        # batch is already counted...
        assert stats["n_orders"] == 1
        # ...and a later one-shot probe sees at least as much.
        assert probe["n_orders"] >= 1


class BuggyBackend:
    """The session's provider, except that ``file-1`` hits a backend bug."""

    def __init__(self, provider):
        self._provider = provider

    def __getattr__(self, name):
        return getattr(self._provider, name)

    def handle_request(self, file_id, index):
        if file_id == b"file-1":
            raise TypeError("backend bug")
        return self._provider.handle_request(file_id, index)


class CountingClient(AuditClient):
    """Counts the replies the daemon sends for each order id."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.replies = Counter()

    def _on_reply(self, reply):
        self.replies[reply.order_id] += 1
        super()._on_reply(reply)


class TestBackendBug:
    def test_flush_exception_answers_its_orders_and_serving_continues(
        self, caplog
    ):
        """A non-ReproError from the backend fails its flush, not the daemon.

        Before, the dispatch task died with the ``TypeError``: the
        ``file-1`` order and every later one timed out and ``stop()``
        re-raised the error.
        """
        session, file_ids = build_session()

        async def run():
            daemon = AuditDaemon(
                tpa=session.tpa,
                verifier=session.verifier,
                provider=BuggyBackend(session.provider),
                flush_batch=16,
            )
            await daemon.start()
            async with CountingClient("127.0.0.1", daemon.port) as client:
                first = await asyncio.wait_for(client.audit(file_ids[0], k=4), 3)
                with pytest.raises(AuditServiceError, match="TypeError"):
                    await asyncio.wait_for(client.audit(file_ids[1], k=4), 3)
                later = await asyncio.wait_for(client.audit(file_ids[0], k=4), 3)
                replies = dict(client.replies)
            await daemon.stop()
            return first, later, replies, daemon.stats, leaked_tasks()

        with caplog.at_level(logging.ERROR, logger="repro.service.dispatch"):
            first, later, replies, stats, leaked = asyncio.run(run())
        assert first.accepted and later.accepted
        assert replies == {1: 1, 2: 1, 3: 1}
        # The failed flush held one order; its error is counted once.
        assert (stats.n_orders, stats.n_errors, stats.n_flushes) == (3, 1, 3)
        assert leaked == []
        (record,) = caplog.records
        assert record.exc_info[0] is TypeError


class TestSoak:
    def test_thousand_audits_clean_shutdown_no_leaked_tasks(self):
        session, file_ids = build_session()

        async def run():
            daemon = build_daemon(session, flush_batch=64)
            await daemon.start()
            async with AuditClient("127.0.0.1", daemon.port) as client:
                plan = [(file_ids[i % 3], 3) for i in range(1000)]
                verdicts = await client.audit_many(plan)
            await daemon.stop()
            return verdicts, leaked_tasks(), daemon.stats

        verdicts, leaked, stats = asyncio.run(run())
        assert len(verdicts) == 1000
        assert all(v.accepted for v in verdicts)
        assert leaked == []
        assert stats.n_orders == 1000
        assert stats.n_errors == 0
        # Batching really happened: the pipelined client saturates the
        # dispatcher, so flushes are far fewer than orders.
        assert stats.n_flushes < 1000
        assert stats.flush_sizes.max_value <= 64

    def test_stop_is_idempotent_and_start_twice_rejected(self):
        session, _ = build_session(n_files=1)

        async def run():
            daemon = build_daemon(session)
            await daemon.start()
            with pytest.raises(ConfigurationError):
                await daemon.start()
            await daemon.stop()
            await daemon.stop()  # second stop is a no-op
            return leaked_tasks()

        assert asyncio.run(run()) == []


class TestRegistryChains:
    """The daemon resolves its registry's chains before it serves."""

    @staticmethod
    def registry_daemon(session, file_ids, *, add_fallback):
        """A daemon over a RAM primary whose fallback may be missing."""
        primary = InMemoryStorage("rack-a")
        for file_id in file_ids:
            primary.put_file(
                session.provider.home_of(file_id).server.store.file_meta(
                    file_id
                )
            )
        registry = ProviderRegistry()
        registry.add(primary, fallbacks=("rack-b",))
        if add_fallback:
            registry.add(InMemoryStorage("rack-b"))
        return AuditDaemon(
            tpa=session.tpa,
            verifier=session.verifier,
            provider=registry,
            flush_batch=16,
        )

    def test_missing_fallback_fails_start(self):
        session, file_ids = build_session(n_files=1)

        async def run():
            daemon = self.registry_daemon(
                session, file_ids, add_fallback=False
            )
            with pytest.raises(ConfigurationError, match="rack-b"):
                await daemon.start()
            # Neither the dispatch task nor the socket was created.
            assert daemon._dispatch_task is None
            assert daemon._server is None
            assert daemon.port == 0
            leaked = leaked_tasks()
            await daemon.stop()  # nothing to stop
            return leaked

        assert asyncio.run(run()) == []

    def test_fallback_added_before_start_serves(self):
        session, file_ids = build_session(n_files=1)

        async def run():
            daemon = self.registry_daemon(
                session, file_ids, add_fallback=True
            )
            await daemon.start()
            try:
                async with AuditClient("127.0.0.1", daemon.port) as client:
                    return await client.audit(file_ids[0], k=4)
            finally:
                await daemon.stop()

        assert asyncio.run(run()).accepted
