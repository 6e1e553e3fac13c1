"""Schnorr signature tests on the embedded test group."""

import pytest

from repro.crypto.schnorr import (
    DEFAULT_GROUP,
    SchnorrGroup,
    SchnorrKeyPair,
    TEST_GROUP,
    _generate_group,
    require_valid_signature,
    schnorr_sign,
    schnorr_verify,
)
from repro.errors import ConfigurationError, SignatureError


@pytest.fixture(scope="module")
def keypair():
    return SchnorrKeyPair.generate(TEST_GROUP, seed=b"unit-test")


class TestGroupParameters:
    def test_test_group_valid(self):
        for group in (TEST_GROUP, DEFAULT_GROUP):
            group.validate()

    @pytest.mark.parametrize(
        "group, p_bits, q_bits, seed",
        [
            pytest.param(TEST_GROUP, 512, 160, 0x47656F, id="TEST_GROUP"),
            pytest.param(
                DEFAULT_GROUP, 1024, 256, 0x47656F50726F6F66, id="DEFAULT_GROUP"
            ),
        ],
    )
    def test_embedded_group_is_generator_output(self, group, p_bits, q_bits, seed):
        # Import only checks the literals' structure; their primality
        # is decided here, by the generator's 40-round Miller-Rabin.
        assert _generate_group(p_bits, q_bits, seed) == group
        assert group.p.bit_length() == p_bits
        assert group.q.bit_length() == q_bits

    def test_generator_has_order_q(self):
        assert pow(TEST_GROUP.g, TEST_GROUP.q, TEST_GROUP.p) == 1

    def test_invalid_group_rejected(self):
        with pytest.raises(ConfigurationError):
            SchnorrGroup(p=23, q=7, g=2).validate()  # 7 does not divide 22


class TestKeyGeneration:
    def test_seeded_is_deterministic(self):
        a = SchnorrKeyPair.generate(TEST_GROUP, seed=b"x")
        b = SchnorrKeyPair.generate(TEST_GROUP, seed=b"x")
        assert a.private.x == b.private.x

    def test_different_seeds_differ(self):
        a = SchnorrKeyPair.generate(TEST_GROUP, seed=b"x")
        b = SchnorrKeyPair.generate(TEST_GROUP, seed=b"y")
        assert a.private.x != b.private.x

    def test_public_matches_private(self, keypair):
        assert keypair.public == keypair.private.public_key()

    def test_private_in_range(self, keypair):
        assert 1 <= keypair.private.x < TEST_GROUP.q


class TestSignVerify:
    def test_roundtrip(self, keypair):
        signature = schnorr_sign(keypair.private, b"message")
        assert schnorr_verify(keypair.public, b"message", signature)

    def test_rejects_modified_message(self, keypair):
        signature = schnorr_sign(keypair.private, b"message")
        assert not schnorr_verify(keypair.public, b"messagE", signature)

    def test_rejects_wrong_key(self, keypair):
        other = SchnorrKeyPair.generate(TEST_GROUP, seed=b"other")
        signature = schnorr_sign(keypair.private, b"message")
        assert not schnorr_verify(other.public, b"message", signature)

    def test_rejects_tampered_signature(self, keypair):
        e, s = schnorr_sign(keypair.private, b"message")
        assert not schnorr_verify(keypair.public, b"message", (e, (s + 1) % TEST_GROUP.q))
        assert not schnorr_verify(keypair.public, b"message", ((e + 1) % TEST_GROUP.q, s))

    def test_rejects_out_of_range_signature(self, keypair):
        assert not schnorr_verify(keypair.public, b"m", (TEST_GROUP.q, 1))
        assert not schnorr_verify(keypair.public, b"m", (-1, 1))

    def test_rejects_malformed_signature(self, keypair):
        assert not schnorr_verify(keypair.public, b"m", None)
        assert not schnorr_verify(keypair.public, b"m", (1, 2, 3))

    def test_deterministic_nonce(self, keypair):
        assert schnorr_sign(keypair.private, b"m") == schnorr_sign(
            keypair.private, b"m"
        )

    def test_distinct_messages_distinct_signatures(self, keypair):
        assert schnorr_sign(keypair.private, b"m1") != schnorr_sign(
            keypair.private, b"m2"
        )

    def test_require_valid_raises(self, keypair):
        with pytest.raises(SignatureError):
            require_valid_signature(keypair.public, b"m", (1, 1))
