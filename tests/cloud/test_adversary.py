"""Adversary strategies end-to-end against GeoProof audits."""

import pytest

from repro.cloud.adversary import (
    CorruptionAttack,
    DeletionAttack,
    PrefetchRelayAttack,
    RelayAttack,
)
from repro.cloud.provider import DataCentre
from repro.crypto.rng import DeterministicRNG
from repro.geo.datasets import city
from repro.netsim.clock import SimClock
from repro.netsim.resources import SpindleQueue
from repro.storage.hdd import IBM_36Z15
from repro.storage.server import StorageServer
from tests.conftest import build_session


# Every test here pays a full POR setup in its fixtures: slow lane.
pytestmark = pytest.mark.slow

def add_remote(session, name="remote", where="singapore", disk=IBM_36Z15):
    session.provider.add_datacentre(DataCentre(name, city(where), disk=disk))


class TestRelayAttack:
    def test_detected_by_timing(self):
        session, file_id, _ = build_session("relay")
        add_remote(session)
        session.provider.relocate(file_id, "remote")
        session.provider.set_strategy(RelayAttack("home", "remote"))
        outcome = session.audit(file_id, k=10)
        assert not outcome.verdict.accepted
        assert outcome.verdict.failure_reasons == ["timing"]

    def test_segments_still_authentic(self):
        # The relay serves *correct* data -- only the timing betrays it.
        session, file_id, _ = build_session("relay-mac")
        add_remote(session)
        session.provider.relocate(file_id, "remote")
        session.provider.set_strategy(RelayAttack("home", "remote"))
        outcome = session.audit(file_id, k=10)
        assert outcome.verdict.macs_ok
        assert not outcome.verdict.timing_ok

    def test_nearby_relay_with_tight_budget(self):
        # A relay to a site in the same metro: the Internet base RTT
        # alone (~16 ms) blows the ~16 ms budget on top of disk time.
        session, file_id, _ = build_session("relay-near")
        add_remote(session, where="sydney")
        session.provider.relocate(file_id, "remote")
        session.provider.set_strategy(RelayAttack("home", "remote"))
        outcome = session.audit(file_id, k=10)
        assert not outcome.verdict.accepted

    def test_forwarding_overhead_validated(self):
        with pytest.raises(Exception):
            RelayAttack("a", "b", forwarding_overhead_ms=-1.0)


class TestPrefetchRelayAttack:
    def test_full_prefetch_defeats_timing(self):
        """The documented limitation: a fully RAM-cached front passes.

        (At which point the data effectively *is* at the front site --
        GeoProof bounds where the data is served from.)
        """
        session, file_id, _ = build_session("prefetch-full")
        add_remote(session)
        session.provider.relocate(file_id, "remote")
        attack = PrefetchRelayAttack("home", "remote", cache_bytes=10**9)
        attack.prewarm(
            session.provider, file_id, list(range(session.files[file_id].n_segments))
        )
        session.provider.set_strategy(attack)
        outcome = session.audit(file_id, k=10)
        assert outcome.verdict.accepted

    def test_partial_prefetch_caught_by_max_rtt(self):
        """Caching 50 % of segments: one miss among k rounds is fatal."""
        session, file_id, _ = build_session("prefetch-half")
        add_remote(session)
        session.provider.relocate(file_id, "remote")
        n = session.files[file_id].n_segments
        attack = PrefetchRelayAttack("home", "remote", cache_bytes=10**9)
        attack.prewarm(session.provider, file_id, list(range(n // 2)))
        session.provider.set_strategy(attack)
        outcome = session.audit(file_id, k=20)
        # P(all 20 challenges in cached half) = 2^-20.
        assert not outcome.verdict.accepted

    def test_prewarm_is_metered_through_the_server(self):
        """Warming reads through the remote server and counts its bytes.

        The remote site's spindle, bound to a requester clock, is the
        record of those reads.
        """
        session, file_id, _ = build_session("prefetch-meter")
        spindle = SpindleQueue("remote")
        session.provider.add_datacentre(DataCentre(
            "remote",
            city("singapore"),
            server=StorageServer(IBM_36Z15, spindle=spindle),
        ))
        session.provider.relocate(file_id, "remote")
        remote = session.provider.datacentre("remote")
        n = session.files[file_id].n_segments
        attack = PrefetchRelayAttack("home", "remote", cache_bytes=10**9)
        with remote.server.timed_with(SimClock()):
            warmed = attack.prewarm(session.provider, file_id, list(range(n)))
        assert warmed == n
        assert spindle.n_requests == n
        assert spindle.busy_ms > 0
        assert attack.prewarmed_bytes > 0
        stats = attack.cache_stats()
        assert stats["prewarmed_bytes"] == attack.prewarmed_bytes
        assert stats["n_entries"] == n
        assert stats["prewarm_cost_usd"] == 0.0  # no cost model passed

    def test_prewarm_priced_by_cost_model(self):
        class PerByte:
            def bandwidth_usd(self, n_bytes):
                return n_bytes * 2.0

        session, file_id, _ = build_session("prefetch-priced")
        add_remote(session)
        session.provider.relocate(file_id, "remote")
        attack = PrefetchRelayAttack("home", "remote", cache_bytes=10**9)
        attack.prewarm(
            session.provider, file_id, [0, 1, 2], cost_model=PerByte()
        )
        assert attack.prewarm_cost_usd == pytest.approx(
            attack.prewarmed_bytes * 2.0
        )

    def test_relayed_bytes_metered_on_misses_only(self):
        session, file_id, _ = build_session("prefetch-relay-bytes")
        add_remote(session)
        session.provider.relocate(file_id, "remote")
        attack = PrefetchRelayAttack("home", "remote", cache_bytes=10**9)
        assert attack.relayed_bytes == 0
        attack.handle_request(session.provider, file_id, 3)  # miss: relayed
        moved = attack.relayed_bytes
        assert moved > 0
        attack.handle_request(session.provider, file_id, 3)  # hit: local
        assert attack.relayed_bytes == moved

    def test_cache_learns_from_traffic(self):
        session, file_id, _ = build_session("prefetch-learn")
        add_remote(session)
        session.provider.relocate(file_id, "remote")
        attack = PrefetchRelayAttack("home", "remote", cache_bytes=10**9)
        session.provider.set_strategy(attack)
        first = attack.handle_request(session.provider, file_id, 7)
        second = attack.handle_request(session.provider, file_id, 7)
        assert second.elapsed_ms < first.elapsed_ms


class TestCorruptionAttack:
    def test_detection_rate_tracks_theory(self):
        session, file_id, _ = build_session("corrupt")
        attack = CorruptionAttack("home", 0.10, DeterministicRNG("adv"))
        session.provider.set_strategy(attack)
        detections = sum(
            1 for _ in range(30) if not session.audit(file_id, k=20).verdict.accepted
        )
        # theory: 1 - 0.9^20 ~ 0.88 -> expect most audits to detect.
        assert detections >= 20

    def test_failure_reason_is_mac(self):
        session, file_id, _ = build_session("corrupt-reason")
        attack = CorruptionAttack("home", 1.0, DeterministicRNG("adv"))
        session.provider.set_strategy(attack)
        outcome = session.audit(file_id, k=5)
        assert not outcome.verdict.accepted
        assert "mac" in outcome.verdict.failure_reasons
        assert len(outcome.verdict.bad_mac_indices) == 5

    def test_zero_fraction_is_honest(self):
        session, file_id, _ = build_session("corrupt-zero")
        attack = CorruptionAttack("home", 0.0, DeterministicRNG("adv"))
        session.provider.set_strategy(attack)
        assert session.audit(file_id, k=10).verdict.accepted


class TestDeletionAttack:
    def test_substitution_detected(self):
        session, file_id, _ = build_session("delete")
        attack = DeletionAttack("home", 0.5, DeterministicRNG("adv"))
        session.provider.set_strategy(attack)
        outcome = session.audit(file_id, k=20)
        assert not outcome.verdict.accepted
        assert "mac" in outcome.verdict.failure_reasons

    def test_deleted_sets_lazy_and_stable(self):
        session, file_id, _ = build_session("delete-stable")
        attack = DeletionAttack("home", 0.3, DeterministicRNG("adv"))
        first = attack.deleted_indices(session.provider, file_id)
        second = attack.deleted_indices(session.provider, file_id)
        assert first is second
        n = session.files[file_id].n_segments
        assert len(first) == round(0.3 * n)
