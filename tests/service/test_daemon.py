"""The asyncio daemon end to end: TCP round-trips, hostile input, soak.

No pytest-asyncio in the toolchain, so every test drives its own event
loop with ``asyncio.run`` -- which doubles as the leak check: a fresh
loop must be empty of foreign tasks after ``daemon.stop()``.
"""

import asyncio
import struct

import pytest

from repro.core.session import GeoProofSession
from repro.crypto.rng import DeterministicRNG
from repro.geo.coords import GeoPoint
from repro.por.parameters import TEST_PARAMS
from repro.service import (
    AuditClient,
    AuditDaemon,
    AuditServiceError,
    FrameParser,
    encode_frame,
    run_audit_client,
)
from repro.service.wire import AuditOrder, ErrorReply, decode_reply
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
    kwargs.setdefault("flush_ms", 2.0)
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
            from repro.errors import ConfigurationError

            with pytest.raises(ConfigurationError):
                await daemon.start()
            await daemon.stop()
            await daemon.stop()  # second stop is a no-op
            return leaked_tasks()

        assert asyncio.run(run()) == []
