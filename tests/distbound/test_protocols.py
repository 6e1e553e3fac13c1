"""Honest-run tests for Hancke-Kuhn, Brands-Chaum and Reid et al."""

import pytest

from repro.crypto.rng import DeterministicRNG
from repro.crypto.schnorr import SchnorrKeyPair, TEST_GROUP
from repro.distbound.base import TimedChannel
from repro.distbound.brands_chaum import BrandsChaumProver, BrandsChaumVerifier
from repro.distbound.hancke_kuhn import (
    HanckeKuhnProver,
    HanckeKuhnVerifier,
    derive_registers,
)
from repro.distbound.reid import ReidProver, ReidVerifier, derive_session_registers
from repro.errors import ConfigurationError
from repro.netsim.clock import SimClock
from repro.netsim.latency import RFChannelModel

SECRET = b"shared-secret-for-tests-123456"


def rf_channel(distance_km: float) -> TimedChannel:
    return TimedChannel(SimClock(), RFChannelModel(), distance_km)


class TestHanckeKuhn:
    def test_honest_nearby_accepted(self, rng):
        verifier = HanckeKuhnVerifier(b"V", SECRET, n_rounds=32, rtt_max_ms=0.1)
        prover = HanckeKuhnProver(b"P", SECRET)
        result = verifier.run(prover, rf_channel(1.0), rng)
        assert result.accepted
        assert result.n_rounds == 32

    def test_honest_but_distant_rejected_on_timing(self, rng):
        verifier = HanckeKuhnVerifier(b"V", SECRET, n_rounds=32, rtt_max_ms=0.1)
        prover = HanckeKuhnProver(b"P", SECRET)
        result = verifier.run(prover, rf_channel(100.0), rng)
        assert not result.accepted
        assert result.bits_ok and not result.timing_ok

    def test_wrong_secret_rejected_on_bits(self, rng):
        verifier = HanckeKuhnVerifier(b"V", SECRET, n_rounds=32, rtt_max_ms=0.1)
        prover = HanckeKuhnProver(b"P", b"some-other-secret-entirely")
        result = verifier.run(prover, rf_channel(1.0), rng)
        assert not result.accepted
        assert not result.bits_ok

    def test_slow_prover_hardware_rejected(self, rng):
        # 0.05 ms processing per round exceeds a 0.05 ms budget with any
        # flight time at all.
        class SlowProver(HanckeKuhnProver):
            def respond(self, challenge_bit):
                bit, _ = super().respond(challenge_bit)
                return bit, 0.05

        verifier = HanckeKuhnVerifier(b"V", SECRET, n_rounds=8, rtt_max_ms=0.05)
        prover = SlowProver(b"P", SECRET)
        result = verifier.run(prover, rf_channel(1.0), rng)
        assert not result.timing_ok

    def test_registers_depend_on_nonces(self):
        a = derive_registers(SECRET, b"n1", b"n2", 32)
        b = derive_registers(SECRET, b"n1", b"n3", 32)
        assert a != b

    def test_register_length(self):
        left, right = derive_registers(SECRET, b"n1", b"n2", 20)
        assert len(left) == len(right) == 3  # ceil(20/8)

    def test_rejects_zero_rounds(self):
        with pytest.raises(ConfigurationError):
            HanckeKuhnVerifier(b"V", SECRET, n_rounds=0)

    def test_prover_requires_session(self):
        prover = HanckeKuhnProver(b"P", SECRET)
        with pytest.raises(ConfigurationError):
            prover.respond(0)


class TestBrandsChaum:
    @pytest.fixture
    def keypair(self):
        return SchnorrKeyPair.generate(TEST_GROUP, seed=b"bc-test")

    def test_honest_accepted(self, keypair, rng):
        verifier = BrandsChaumVerifier(b"V", keypair.public, n_rounds=16, rtt_max_ms=0.1)
        prover = BrandsChaumProver(b"P", keypair)
        result = verifier.run(prover, rf_channel(1.0), rng)
        assert result.accepted

    def test_distance_enforced(self, keypair, rng):
        verifier = BrandsChaumVerifier(b"V", keypair.public, n_rounds=16, rtt_max_ms=0.1)
        prover = BrandsChaumProver(b"P", keypair)
        result = verifier.run(prover, rf_channel(50.0), rng)
        assert not result.accepted
        assert not result.timing_ok

    def test_wrong_signer_rejected(self, keypair, rng):
        other = SchnorrKeyPair.generate(TEST_GROUP, seed=b"other")
        verifier = BrandsChaumVerifier(b"V", other.public, n_rounds=16, rtt_max_ms=0.1)
        prover = BrandsChaumProver(b"P", keypair)  # signs with its own key
        result = verifier.run(prover, rf_channel(1.0), rng)
        assert not result.accepted

    def test_response_is_challenge_xor_commitment(self, keypair, rng):
        prover = BrandsChaumProver(b"P", keypair)
        prover.begin_session(8, rng)
        from repro.util.bitops import bit_at

        for i in range(8):
            bit, _ = prover.respond(i % 2)
            assert bit == (i % 2) ^ bit_at(prover._bits, i)


class TestReid:
    def test_honest_accepted(self, rng):
        verifier = ReidVerifier(b"V", SECRET, n_rounds=32, rtt_max_ms=0.1)
        prover = ReidProver(b"P", SECRET)
        result = verifier.run(prover, rf_channel(1.0), rng)
        assert result.accepted

    def test_identity_binding(self, rng):
        # A prover that derives with a different verifier identity
        # produces wrong register bits.
        class MisboundProver(ReidProver):
            def begin_session(self, verifier_id, vn, pn, n):
                super().begin_session(b"WRONG-V", vn, pn, n)

        verifier = ReidVerifier(b"V", SECRET, n_rounds=32, rtt_max_ms=0.1)
        result = verifier.run(MisboundProver(b"P", SECRET), rf_channel(1.0), rng)
        assert not result.accepted
        assert not result.bits_ok

    def test_registers_bound_to_both_ids(self):
        a = derive_session_registers(SECRET, b"V1", b"P", b"n1", b"n2", 32)
        b = derive_session_registers(SECRET, b"V2", b"P", b"n1", b"n2", 32)
        c = derive_session_registers(SECRET, b"V1", b"P2", b"n1", b"n2", 32)
        assert a != b and a != c

    def test_distance_enforced(self, rng):
        verifier = ReidVerifier(b"V", SECRET, n_rounds=16, rtt_max_ms=0.1)
        prover = ReidProver(b"P", SECRET)
        result = verifier.run(prover, rf_channel(200.0), rng)
        assert not result.timing_ok
