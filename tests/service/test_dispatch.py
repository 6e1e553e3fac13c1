"""The dispatcher's batched audit plane vs the scalar reference audit.

The load-bearing pin: for the same seed and the same order stream, the
daemon's batched path and the scalar one-call-one-audit oracle
(``tests.conftest.scalar_audit``) produce
*identical* verdicts -- bad orders answered before any nonce is drawn,
an order whose backend fails failing alone, submission order
preserved.
"""

import pytest

from repro.core.session import GeoProofSession
from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError, StorageUnavailableError
from repro.geo.coords import GeoPoint
from repro.por.parameters import TEST_PARAMS
from repro.service import AuditOrder, ErrorReply, VerdictReply
from repro.service.dispatch import AuditDispatcher
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
        with pytest.raises(ConfigurationError):
            build_dispatcher(session, flush_ms=0.0)
