"""The dispatcher's batched audit plane vs the scalar reference audit.

The load-bearing pin: for the same seed and the same order stream, the
daemon's batched path and the scalar one-call-one-audit oracle
(``tests.conftest.scalar_audit``) produce
*identical* verdicts -- bad orders answered before any nonce is drawn,
an order whose backend fails failing alone, submission order
preserved.
"""

import asyncio
import gc
import tracemalloc

import pytest

from repro.cloud.adversary import CorruptionAttack, DeletionAttack
from repro.core.session import GeoProofSession
from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError, StorageUnavailableError
from repro.geo.coords import GeoPoint
from repro.por.parameters import TEST_PARAMS
from repro.service import (
    AuditOrder,
    ErrorReply,
    FrameParser,
    VerdictReply,
    decode_reply,
)
from repro.service import framing
from repro.service.dispatch import (
    SHUTDOWN,
    UNFRAMED_REPLY,
    AuditDispatcher,
    Submitted,
)
from repro.service.registry import ProviderRegistry
from repro.storage.contract import InMemoryStorage
from tests.conftest import scalar_audit


def build_session(seed="dispatch", n_files=3, min_rounds=4):
    session = GeoProofSession.build(
        datacentre_location=GeoPoint(-27.4698, 153.0251),
        params=TEST_PARAMS,
        min_rounds=min_rounds,
        seed=seed,
    )
    rng = DeterministicRNG(seed + "-data")
    file_ids = []
    for i in range(n_files):
        file_id = f"file-{i}".encode()
        session.outsource(file_id, rng.fork(str(i)).random_bytes(4000))
        file_ids.append(file_id)
    return session, file_ids


def build_dispatcher(session, **kwargs):
    return AuditDispatcher(
        tpa=session.tpa,
        verifier=session.verifier,
        provider=session.provider,
        **kwargs,
    )


class RefusesOneFile(InMemoryStorage):
    """A RAM backend that cannot serve one file (a lost shard, say)."""

    def __init__(self, name, refused):
        super().__init__(name)
        self.refused = refused

    def lookup(self, file_id, index):
        if file_id == self.refused:
            raise StorageUnavailableError(f"shard of {file_id!r} is down")
        return super().lookup(file_id, index)


class DeletesOneFile:
    """Serves every file honestly from home but one, all of whose
    segments a :class:`DeletionAttack` has discarded."""

    def __init__(self, doomed):
        self.doomed = doomed
        self.attack = DeletionAttack("home", 1.0, DeterministicRNG("doomed"))

    def handle_request(self, provider, file_id, index):
        if file_id == self.doomed:
            return self.attack.handle_request(provider, file_id, index)
        return provider.datacentre("home").lookup(file_id, index)


class CorruptsOneFile:
    """Serves every file honestly from home but one, every segment of
    which comes back corrupted, so each round fails its MAC."""

    def __init__(self, corrupted):
        self.corrupted = corrupted
        self.attack = CorruptionAttack("home", 1.0, DeterministicRNG("rot"))

    def handle_request(self, provider, file_id, index):
        if file_id == self.corrupted:
            return self.attack.handle_request(provider, file_id, index)
        return provider.datacentre("home").lookup(file_id, index)


def registry_refusing(session, file_ids, refused):
    """A one-backend registry over copies of the session's files."""
    backend = RefusesOneFile("ram", refused)
    for file_id in file_ids:
        backend.put_file(
            session.provider.home_of(file_id).server.store.file_meta(file_id)
        )
    registry = ProviderRegistry()
    registry.add(backend)
    return registry


class TestScalarEquivalence:
    def test_mixed_k_batch_matches_scalar_audits(self):
        scalar_session, file_ids = build_session()
        plan = [(file_ids[i % 3], 3 + (i % 2)) for i in range(24)]
        scalar = [
            scalar_audit(
                scalar_session.tpa,
                file_id,
                scalar_session.verifier,
                scalar_session.provider,
                k=k,
            ).verdict
            for file_id, k in plan
        ]

        batch_session, _ = build_session()
        dispatcher = build_dispatcher(batch_session)
        replies = dispatcher.process_batch(
            [
                AuditOrder(i + 1, file_id, k)
                for i, (file_id, k) in enumerate(plan)
            ]
        )
        assert [reply.verdict for reply in replies] == scalar

    def test_invalid_orders_do_not_perturb_neighbours(self):
        scalar_session, file_ids = build_session()
        scalar = [
            scalar_audit(
                scalar_session.tpa,
                file_id,
                scalar_session.verifier,
                scalar_session.provider,
                k=3,
            ).verdict
            for file_id in file_ids
        ]

        batch_session, _ = build_session()
        dispatcher = build_dispatcher(batch_session)
        replies = dispatcher.process_batch(
            [
                AuditOrder(1, file_ids[0], 3),
                AuditOrder(2, b"no-such-file", 3),  # rejected pre-nonce
                AuditOrder(3, file_ids[1], 3),
                AuditOrder(4, file_ids[2], 10**9),  # k out of range
                AuditOrder(5, file_ids[2], 3),
            ]
        )
        assert isinstance(replies[1], ErrorReply)
        assert replies[1].message == "file b'no-such-file' not registered"
        assert isinstance(replies[3], ErrorReply)
        n_segments = batch_session.tpa.record(file_ids[2]).n_segments
        assert replies[3].message == (
            f"k must be in 1..{n_segments}, got {10**9}"
        )
        good = [replies[0], replies[2], replies[4]]
        assert all(isinstance(reply, VerdictReply) for reply in good)
        assert [reply.verdict for reply in good] == scalar

    def test_backend_failure_fails_only_its_order(self):
        """Files 0, 0, 1, 0, 0 over a backend that refuses file 1: the
        third order errors alone, and the other four verdicts equal the
        per-order scalar oracle on a twin."""
        plan = [0, 0, 1, 0, 0]
        scalar_session, file_ids = build_session(min_rounds=2)
        scalar_registry = registry_refusing(
            scalar_session, file_ids, file_ids[1]
        )
        scalar = []
        for i in plan:
            try:
                scalar.append(scalar_audit(
                    scalar_session.tpa,
                    file_ids[i],
                    scalar_session.verifier,
                    scalar_registry,
                    k=2,
                ).verdict)
            except StorageUnavailableError:
                scalar.append(None)
        assert [verdict is None for verdict in scalar] == [
            False, False, True, False, False
        ]

        batch_session, _ = build_session(min_rounds=2)
        dispatcher = AuditDispatcher(
            tpa=batch_session.tpa,
            verifier=batch_session.verifier,
            provider=registry_refusing(batch_session, file_ids, file_ids[1]),
        )
        replies = dispatcher.process_batch(
            [AuditOrder(n + 1, file_ids[i], 2) for n, i in enumerate(plan)]
        )
        assert [type(reply) for reply in replies] == [
            VerdictReply, VerdictReply, ErrorReply, VerdictReply, VerdictReply
        ]
        assert [reply.order_id for reply in replies] == [1, 2, 3, 4, 5]
        assert "is down" in replies[2].message
        assert [getattr(reply, "verdict", None) for reply in replies] == scalar
        assert dispatcher.stats.n_errors == 1

    def test_nothing_left_to_substitute_fails_only_its_order(self):
        """A provider that deleted every segment of the middle file
        has no segment left to pass off: that order errors alone."""
        session, file_ids = build_session()
        session.provider.set_strategy(DeletesOneFile(file_ids[1]))
        dispatcher = build_dispatcher(session)
        replies = dispatcher.process_batch(
            [AuditOrder(i + 1, file_id, 3) for i, file_id in enumerate(file_ids)]
        )
        assert [type(reply) for reply in replies] == [
            VerdictReply, ErrorReply, VerdictReply
        ]
        assert replies[1].message == (
            "every segment of file b'file-1' is deleted at 'home': "
            "nothing left to substitute"
        )
        assert replies[0].verdict.accepted and replies[2].verdict.accepted
        assert dispatcher.stats.n_errors == 1

    def test_k_zero_means_sla_min_rounds(self):
        scalar_session, file_ids = build_session(min_rounds=5)
        scalar = scalar_audit(
            scalar_session.tpa,
            file_ids[0],
            scalar_session.verifier,
            scalar_session.provider,
        ).verdict

        batch_session, _ = build_session(min_rounds=5)
        dispatcher = build_dispatcher(batch_session)
        (reply,) = dispatcher.process_batch([AuditOrder(1, file_ids[0], 0)])
        assert reply.verdict == scalar


class TestReplies:
    def test_one_reply_per_order_in_submission_order(self):
        session, file_ids = build_session()
        dispatcher = build_dispatcher(session)
        orders = [
            AuditOrder(i + 10, file_ids[i % 3], 3 if i % 2 else 4)
            for i in range(9)
        ]
        replies = dispatcher.process_batch(orders)
        assert [reply.order_id for reply in replies] == [
            order.order_id for order in orders
        ]

    def test_stats_track_orders_errors_and_flushes(self):
        session, file_ids = build_session()
        dispatcher = build_dispatcher(session)
        dispatcher.process_batch(
            [AuditOrder(1, file_ids[0], 3), AuditOrder(2, b"missing", 3)]
        )
        dispatcher.process_batch([AuditOrder(3, file_ids[1], 3)])
        assert dispatcher.stats.n_orders == 3
        assert dispatcher.stats.n_errors == 1
        assert dispatcher.stats.n_flushes == 2
        # flush_sizes is a bounded histogram: observations [2, 1].
        assert dispatcher.stats.flush_sizes.count == 2
        assert dispatcher.stats.flush_sizes.sum == 3
        assert dispatcher.stats.flush_sizes.max_value == 2

    def test_configuration_bounds(self):
        session, _ = build_session()
        with pytest.raises(ConfigurationError):
            build_dispatcher(session, flush_batch=0)


class RecordingSink:
    """A connection stand-in: the replies it gets, and the order ids of
    each delivery."""

    def __init__(self):
        self.deliveries = []
        self.replies = []

    def send_replies(self, data, n_replies):
        replies = [decode_reply(body) for body in FrameParser().feed(data)]
        assert len(replies) == n_replies
        self.replies.extend(replies)
        self.deliveries.append([reply.order_id for reply in replies])


def chunk(sink, first_id, n, file_id):
    """One reader chunk: ``n`` orders from ``sink``, ids from ``first_id``."""
    return [
        Submitted(AuditOrder(first_id + i, file_id, 3), sink)
        for i in range(n)
    ]


class TestGroupCommit:
    """``run`` flushes what is queued as soon as it is idle: no timer."""

    def test_lone_order_on_an_idle_dispatcher_flushes_at_once(self):
        session, file_ids = build_session()
        dispatcher = build_dispatcher(session)
        sink = RecordingSink()

        async def run():
            queue = asyncio.Queue()
            task = asyncio.create_task(dispatcher.run(queue))
            await asyncio.sleep(0)  # idle: waiting on the empty queue
            queue.put_nowait(chunk(sink, 1, 1, file_ids[0]))
            spins = 0
            while not sink.deliveries and spins < 5:
                await asyncio.sleep(0)  # one event-loop iteration
                spins += 1
            queue.put_nowait(SHUTDOWN)
            await task
            return spins

        spins = asyncio.run(run())
        assert sink.deliveries == [[1]]
        assert spins == 1
        assert dispatcher.stats.n_flushes == 1

    def test_chunks_already_queued_flush_together(self):
        session, file_ids = build_session()
        dispatcher = build_dispatcher(session)
        alice, bob = RecordingSink(), RecordingSink()

        async def run():
            queue = asyncio.Queue()
            task = asyncio.create_task(dispatcher.run(queue))
            await asyncio.sleep(0)
            queue.put_nowait(chunk(alice, 1, 2, file_ids[0]))
            queue.put_nowait(chunk(bob, 3, 3, file_ids[1]))
            queue.put_nowait(chunk(alice, 6, 1, file_ids[2]))
            queue.put_nowait(SHUTDOWN)
            await task

        asyncio.run(run())
        # One flush of all six; one delivery per connection, in
        # submission order.
        assert dispatcher.stats.n_flushes == 1
        assert dispatcher.stats.flush_sizes.max_value == 6
        assert alice.deliveries == [[1, 2, 6]]
        assert bob.deliveries == [[3, 4, 5]]

    def test_flush_batch_caps_each_flush(self):
        session, file_ids = build_session()
        dispatcher = build_dispatcher(session, flush_batch=16)
        sink = RecordingSink()

        async def run():
            queue = asyncio.Queue()
            queue.put_nowait(chunk(sink, 1, 40, file_ids[0]))
            queue.put_nowait(SHUTDOWN)
            await dispatcher.run(queue)

        asyncio.run(run())
        assert [len(ids) for ids in sink.deliveries] == [16, 16, 8]
        assert sum(sink.deliveries, []) == list(range(1, 41))
        assert dispatcher.stats.n_flushes == 3


class TestUnframedReplies:
    def test_every_order_gets_one_reply_when_a_verdict_outgrows_a_frame(
        self, monkeypatch
    ):
        """A verdict lists every bad MAC index, so a large ``k`` on a
        corrupted file can outgrow a frame; here a small frame limit
        stands in for that.  The order is answered with a short
        ErrorReply and counted as an error; before, framing it raised
        and the dispatch task died with the flush undelivered."""
        session, file_ids = build_session()
        session.provider.set_strategy(CorruptsOneFile(file_ids[1]))
        dispatcher = build_dispatcher(session)
        sink = RecordingSink()
        orders = [
            AuditOrder(1, file_ids[0], 3),
            AuditOrder(2, b"ghost", 3),
            AuditOrder(3, file_ids[1], 8),
            AuditOrder(4, file_ids[2], 3),
        ]
        # Room for an honest verdict (41 bytes) and a short error, not
        # for the eight bad indices of order 3.
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 64)

        async def run():
            queue = asyncio.Queue()
            queue.put_nowait([Submitted(order, sink) for order in orders])
            queue.put_nowait(SHUTDOWN)
            await dispatcher.run(queue)

        asyncio.run(run())
        assert sink.deliveries == [[1, 2, 3, 4]]
        assert [type(reply) for reply in sink.replies] == [
            VerdictReply, ErrorReply, ErrorReply, VerdictReply
        ]
        assert sink.replies[1].message == "file b'ghost' not registered"
        assert sink.replies[2].message == UNFRAMED_REPLY
        assert sink.replies[0].verdict.accepted
        assert sink.replies[3].verdict.accepted
        assert (dispatcher.stats.n_orders, dispatcher.stats.n_errors) == (4, 2)


class TestSteadyStateMemory:
    """The TPA keeps counters, not outcomes, so serving stays flat."""

    def test_second_run_of_orders_leaves_the_heap_flat(self):
        """After a warm-up run has filled every table and cache, a
        second run of the same number of orders keeps next to nothing:
        its verdicts went back to the caller, and only counters moved.
        A TPA that held each outcome (a transcript with its segments
        and batch proof) would keep hundreds of kB here."""
        session, file_ids = build_session("steady-state", n_files=2)
        dispatcher = build_dispatcher(session)
        n_orders = 256
        # k=16 lets the warm-up challenge nearly all 455 segments of
        # each file, so few are left to fill Segment.wire_bytes' memo.
        orders = [
            AuditOrder(i + 1, file_ids[i % 2], 16) for i in range(n_orders)
        ]

        def serve():
            for start in range(0, n_orders, dispatcher.flush_batch):
                replies = dispatcher.process_batch(
                    orders[start:start + dispatcher.flush_batch]
                )
                assert all(reply.verdict.accepted for reply in replies)

        serve()
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            serve()
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dispatcher.stats.n_orders == 2 * n_orders
        assert session.tpa.acceptance_rate() == 1.0
        assert after - before < 32_000
