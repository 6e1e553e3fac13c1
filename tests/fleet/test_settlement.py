"""Per-site settlement: a fleet run seals each site's runs in groups.

A batch stages its audits and queues the served runs at its lane's
site.  Once a site holds ``RUNS_PER_SEAL`` runs it settles them in one
``flush_verdicts`` call (one seal, one signed root), and the end of
``run()`` settles whatever is left, before the report is built.  Both
engines share that body, so every test here runs on both.
"""

import gc

import pytest

from repro.cloud.adversary import DeletionAttack
from repro.cloud.tpa import ThirdPartyAuditor
from repro.crypto.rng import DeterministicRNG
from repro.fleet import AuditFleet, RoundRobinStrategy, WorkStealingStrategy
from repro.fleet.demo import build_contention_fleet
from repro.fleet.fleet import RUNS_PER_SEAL
from repro.geo.datasets import city

BATCH_SIZE = 3


@pytest.fixture
def flushes(monkeypatch):
    """Per ``flush_verdicts`` call, the verifiers of the runs it settles."""
    calls = []
    flush = ThirdPartyAuditor.flush_verdicts

    def recording_flush(self, pending):
        calls.append([entry.verifier for entry in pending])
        return flush(self, pending)

    monkeypatch.setattr(ThirdPartyAuditor, "flush_verdicts", recording_flush)
    return calls


def settling_fleet(engine):
    """The contention fleet, whose idle lanes steal on the event engine,
    plus a provider that deleted every file, whose audits go unserved.

    A batch of 3 does not divide ``RUNS_PER_SEAL``, so a site's queue
    passes it before it settles.
    """
    fleet, _ = build_contention_fleet(
        strategy=WorkStealingStrategy(),
        hot_files=6, k_rounds=4, batch_size=BATCH_SIZE,
        slot_minutes=0.0025, spindles=2, engine=engine,
    )
    fleet.add_provider("wiper", [("perth", city("perth"))])
    data_rng = DeterministicRNG("settle-wiper")
    for i in range(2):
        fleet.register(
            tenant="wiped",
            provider="wiper",
            datacentre="perth",
            file_id=f"wiped-{i}".encode(),
            data=data_rng.fork(str(i)).random_bytes(1_500),
        )
    fleet.provider("wiper").set_strategy(
        DeletionAttack("perth", 1.0, DeterministicRNG("settle-wipe"))
    )
    return fleet


class FailsOnRank(RoundRobinStrategy):
    """Round robin whose ``n``-th ranking calls ``probe``, then raises."""

    def __init__(self, n, probe):
        self.left, self.probe = n, probe

    def rank(self, tasks, now_ms):
        self.left -= 1
        if not self.left:
            self.probe()
            raise RuntimeError("ranking failed")
        return super().rank(tasks, now_ms)


def verifiers_of(fleet):
    return [
        verifier
        for name in fleet.provider_names()
        for verifier in fleet.deployment(name).verifiers.values()
    ]


@pytest.mark.parametrize("engine", ["slot", "event"])
class TestSiteSettlement:
    def test_each_flush_settles_one_site_up_to_the_bound(self, engine, flushes):
        fleet = settling_fleet(engine)
        report = fleet.run(hours=0.005)
        served = [e for e in report.events if e.failure_reasons != ("unserved",)]
        assert len(served) < report.n_audits
        if engine == "event":
            assert report.n_stolen_audits > 0
        assert all(len(set(verifiers)) == 1 for verifiers in flushes)
        bound = RUNS_PER_SEAL + BATCH_SIZE - 1
        by_verifier = {}
        for verifiers in flushes:
            by_verifier.setdefault(verifiers[0], []).append(len(verifiers))
        for sizes in by_verifier.values():
            # Every settle but a site's last waits for a full queue.
            assert all(RUNS_PER_SEAL <= size <= bound for size in sizes[:-1])
            assert 0 < sizes[-1] <= bound
        assert max(len(verifiers) for verifiers in flushes) == bound
        assert sum(len(verifiers) for verifiers in flushes) == len(served)
        # One flush per site per RUNS_PER_SEAL runs, not one per batch.
        assert len(flushes) < report.n_batches / 10

    def test_no_run_is_left_unsealed(self, engine, monkeypatch):
        fleet = settling_fleet(engine)
        verifiers = verifiers_of(fleet)
        unsealed_at_report = []
        build_report = AuditFleet._build_report

        def checking_build_report(self, **kwargs):
            # The run still holds its queue here, so an unsettled run
            # would still be on its verifier.
            unsealed_at_report.append(
                sum(len(verifier._unsealed) for verifier in verifiers)
            )
            return build_report(self, **kwargs)

        monkeypatch.setattr(AuditFleet, "_build_report", checking_build_report)
        report = fleet.run(hours=0.005)
        assert report.n_audits > RUNS_PER_SEAL
        assert unsealed_at_report == [0]
        assert all(len(verifier._unsealed) == 0 for verifier in verifiers)

    def test_a_run_that_raises_drops_its_queue(self, engine):
        fleet = settling_fleet(engine)
        verifiers = verifiers_of(fleet)
        unsealed_at_raise = []
        fleet.strategy = FailsOnRank(40, lambda: unsealed_at_raise.append(
            sum(len(verifier._unsealed) for verifier in verifiers)
        ))
        with pytest.raises(RuntimeError, match="ranking failed"):
            fleet.run(hours=0.005)
        gc.collect()  # the event engine's closures form reference cycles
        assert unsealed_at_raise[0] > 0
        assert all(len(verifier._unsealed) == 0 for verifier in verifiers)
