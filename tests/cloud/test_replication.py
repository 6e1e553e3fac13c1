"""Replication audits: counting provably distinct replicas."""

import pytest

from repro.cloud import replication
from repro.cloud.adversary import CorruptionAttack
from repro.cloud.provider import CloudProvider, DataCentre
from repro.cloud.replication import (
    NearestCopyStrategy,
    ReplicaSite,
    ReplicationAuditor,
)
from repro.cloud.sla import SLAPolicy
from repro.cloud.tpa import ThirdPartyAuditor
from repro.cloud.verifier import VerifierDevice
from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError
from repro.geo.coords import haversine_km
from repro.geo.datasets import city
from repro.geo.regions import CircularRegion
from repro.netsim.clock import SimClock
from repro.por.parameters import TEST_PARAMS
from repro.por.setup import PORKeys, setup_file

# Every test here pays a full POR setup in its fixtures: slow lane.
pytestmark = pytest.mark.slow

SITES = ["sydney", "perth", "singapore"]


def build_deployment(replicate_to: list[str]):
    """Provider with copies at 'sydney' + ``replicate_to``; 3 sites."""
    rng = DeterministicRNG("replication-tests")
    provider = CloudProvider("acme")
    for name in SITES:
        provider.add_datacentre(DataCentre(name, city(name)))
    keys = PORKeys.derive(b"replication-test-master-key")
    data = rng.fork("data").random_bytes(20_000)
    encoded = setup_file(data, keys, b"f", TEST_PARAMS)
    provider.upload(encoded, "sydney")
    for name in replicate_to:
        provider.replicate_to(b"f", name)
    tpa = ThirdPartyAuditor("tpa", rng.fork("tpa"))
    clock = SimClock()
    auditor = ReplicationAuditor(tpa)
    sydney_sla = None
    for name in SITES:
        sla = SLAPolicy(region=CircularRegion(city(name), 100.0))
        if name == "sydney":
            sydney_sla = sla
        verifier = VerifierDevice(
            f"verifier-{name}".encode(),
            city(name),
            clock=clock,
            rng=rng.fork(f"verifier-{name}"),
        )
        auditor.add_site(ReplicaSite(name=name, verifier=verifier, sla=sla))
    tpa.register_file(b"f", encoded.n_segments, keys.mac_key, TEST_PARAMS, sydney_sla)
    return provider, auditor


class TestHonestReplication:
    def test_full_replication_witnesses_all_sites(self):
        provider, auditor = build_deployment(replicate_to=["perth", "singapore"])
        verdict = auditor.audit_round(b"f", provider, k=10)
        assert len(verdict.accepted_sites) == len(verdict.outcomes)
        assert verdict.distinct_replicas == 3
        assert verdict.meets(3)
        assert verdict.insufficient_separation == []

    def test_outcomes_logged_per_site(self):
        provider, auditor = build_deployment(replicate_to=["perth", "singapore"])
        verdict = auditor.audit_round(b"f", provider, k=10)
        assert set(verdict.outcomes) == set(SITES)


class TestSkimpedReplication:
    def test_missing_replica_detected(self):
        """Two copies instead of three: the uncovered site fails."""
        provider, auditor = build_deployment(replicate_to=["perth"])
        verdict = auditor.audit_round(b"f", provider, k=10)
        assert sorted(verdict.accepted_sites) == ["perth", "sydney"]
        assert verdict.distinct_replicas == 2
        assert not verdict.meets(3)
        assert verdict.meets(2)

    def test_single_copy_serves_only_its_own_site(self):
        provider, auditor = build_deployment(replicate_to=[])
        verdict = auditor.audit_round(b"f", provider, k=10)
        assert verdict.accepted_sites == ["sydney"]
        assert verdict.distinct_replicas == 1

    def test_remote_serving_fails_on_timing(self):
        provider, auditor = build_deployment(replicate_to=[])
        verdict = auditor.audit_round(b"f", provider, k=10)
        singapore = verdict.outcomes["singapore"].verdict
        assert not singapore.accepted
        assert not singapore.timing_ok
        # The data itself verified fine -- it is just far away.
        assert singapore.macs_ok


class TestInstalledAdversary:
    """A round audits the provider as it is, adversary included."""

    def test_round_does_not_mask_an_installed_adversary(self):
        provider, auditor = build_deployment(replicate_to=["perth", "singapore"])
        attack = CorruptionAttack("sydney", 0.5, DeterministicRNG("c"))
        provider.set_strategy(attack)
        sydney = auditor.sites()[0]
        direct = auditor.tpa.audit(
            b"f",
            sydney.verifier,
            provider,
            k=12,
            rtt_max_ms=sydney.sla.rtt_max_ms,
            region=sydney.sla.region,
        )
        assert "mac" in direct.verdict.failure_reasons
        verdict = auditor.audit_round(b"f", provider, k=12)
        assert verdict.accepted_sites == []
        assert verdict.distinct_replicas == 0
        assert all(
            not outcome.verdict.macs_ok for outcome in verdict.outcomes.values()
        )
        assert provider.strategy is attack

    def test_honest_round_restores_no_strategy(self):
        provider, auditor = build_deployment(replicate_to=["perth"])
        auditor.audit_round(b"f", provider, k=4)
        assert provider.strategy is None


class TestNearestCopyMemo:
    def test_nearest_copy_found_once_per_file(self, monkeypatch):
        """One audit's lookups find the nearest holder once, not per round."""
        provider, auditor = build_deployment(replicate_to=["perth"])
        calls = []

        def counting_haversine(a, b):
            calls.append((a, b))
            return haversine_km(a, b)

        monkeypatch.setattr(replication, "haversine_km", counting_haversine)
        singapore = city("singapore")
        strategy = NearestCopyStrategy(singapore)
        served = [
            strategy.handle_request(provider, b"f", index) for index in range(12)
        ]
        # Two holders ranked plus one flight distance, for 12 lookups.
        assert len(calls) == 3
        fresh = [
            NearestCopyStrategy(singapore).handle_request(provider, b"f", index)
            for index in range(12)
        ]
        assert [r.served_by for r in served] == [r.served_by for r in fresh]
        assert served[0].served_by == "perth"


class TestSeparationFilter:
    def test_nearby_sites_not_double_counted(self):
        """Two verifiers in the same metro can be served by one copy;
        the pairwise-separation rule credits only one replica."""
        rng = DeterministicRNG("nearby")
        provider = CloudProvider("acme")
        provider.add_datacentre(DataCentre("sydney-a", city("sydney")))
        keys = PORKeys.derive(b"nearby-sites-master-key-00")
        encoded = setup_file(
            rng.fork("d").random_bytes(10_000), keys, b"f", TEST_PARAMS
        )
        provider.upload(encoded, "sydney-a")
        tpa = ThirdPartyAuditor("tpa", rng.fork("tpa"))
        clock = SimClock()
        auditor = ReplicationAuditor(tpa)
        sla = SLAPolicy(region=CircularRegion(city("sydney"), 100.0))
        for suffix in ("east", "west"):
            verifier = VerifierDevice(
                f"v-{suffix}".encode(),
                city("sydney"),
                clock=clock,
                rng=rng.fork(suffix),
            )
            auditor.add_site(
                ReplicaSite(name=f"syd-{suffix}", verifier=verifier, sla=sla)
            )
        tpa.register_file(b"f", encoded.n_segments, keys.mac_key, TEST_PARAMS, sla)
        verdict = auditor.audit_round(b"f", provider, k=10)
        assert len(verdict.accepted_sites) == 2  # both audits pass...
        assert verdict.distinct_replicas == 1  # ...but one replica proven
        assert len(verdict.insufficient_separation) == 1


class TestValidation:
    def test_duplicate_site_rejected(self):
        provider, auditor = build_deployment(replicate_to=[])
        site = auditor.sites()[0]
        with pytest.raises(ConfigurationError):
            auditor.add_site(site)

    def test_empty_auditor_rejected(self):
        rng = DeterministicRNG("empty")
        auditor = ReplicationAuditor(ThirdPartyAuditor("t", rng))
        with pytest.raises(ConfigurationError):
            auditor.audit_round(b"f", CloudProvider("acme"))

    def test_nearest_strategy_requires_a_holder(self):
        provider = CloudProvider("acme")
        provider.add_datacentre(DataCentre("syd", city("sydney")))
        strategy = NearestCopyStrategy(city("sydney"))
        with pytest.raises(ConfigurationError):
            strategy.handle_request(provider, b"ghost", 0)

    def test_timing_radius_positive(self):
        provider, auditor = build_deployment(replicate_to=[])
        for site in auditor.sites():
            assert site.timing_radius_km > 500.0  # ~16 ms at 4/9 c


class TestTimingRadiusFormula:
    """The fleet's separation filter leans on this exact arithmetic."""

    def test_radius_is_one_way_internet_flight_of_the_budget(self):
        from repro.netsim.latency import INTERNET_SPEED_KM_PER_MS

        sla = SLAPolicy(region=CircularRegion(city("sydney"), 100.0))
        verifier = VerifierDevice(
            b"v-radius",
            city("sydney"),
            rng=DeterministicRNG("v-radius"),
            clock=SimClock(),
        )
        site = ReplicaSite(name="sydney", verifier=verifier, sla=sla)
        assert site.timing_radius_km == pytest.approx(
            INTERNET_SPEED_KM_PER_MS * sla.rtt_max_ms / 2.0
        )

    def test_radius_scales_with_the_timing_budget(self):
        verifier = VerifierDevice(
            b"v-scale",
            city("sydney"),
            rng=DeterministicRNG("v-scale"),
            clock=SimClock(),
        )
        tight = ReplicaSite(
            name="tight",
            verifier=verifier,
            sla=SLAPolicy(region=CircularRegion(city("sydney"), 100.0)),
        )
        loose = ReplicaSite(
            name="loose",
            verifier=verifier,
            sla=SLAPolicy(
                region=CircularRegion(city("sydney"), 100.0),
                margin_ms=10.0,
            ),
        )
        # Every millisecond of margin is separation the filter loses:
        # a looser budget certifies a larger (weaker) radius.
        assert loose.timing_radius_km > tight.timing_radius_km
