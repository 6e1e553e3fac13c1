"""AES against the FIPS-197 / SP 800-38A vectors plus properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes import AES, _ctr_keystream, aes_ctr_decrypt, aes_ctr_encrypt
from repro.errors import InvalidKeyError
from repro.gf import gf256_vec
from repro.util.bitops import xor_bytes

#: The counter blocks of a three-block call that starts at all-ones: the
#: 128-bit counter wraps to zero after the first block.
WRAP_COUNTERS = [b"\xff" * 16, bytes(16), bytes(15) + b"\x01"]


def _scalar_ctr(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """The scalar block loop, bypassing the HAS_NUMPY dispatch."""
    return xor_bytes(data, _ctr_keystream(AES(key), nonce, len(data)))


def _explicit_ctr(key: bytes, counters: list[bytes], data: bytes) -> bytes:
    """CTR spelled out: ``data`` XOR ``E_K`` of each listed counter block."""
    cipher = AES(key)
    keystream = b"".join(cipher.encrypt_block(block) for block in counters)
    return xor_bytes(data, keystream[: len(data)])


@pytest.fixture(params=["scalar", "vector"])
def ctr_path(request, monkeypatch):
    """Run a test once per CTR path by setting the capability flag."""
    if request.param == "vector" and not gf256_vec.HAS_NUMPY:
        pytest.skip("vectorized CTR needs numpy")
    monkeypatch.setattr(gf256_vec, "HAS_NUMPY", request.param == "vector")
    return request.param


class TestFIPSVectors:
    """Appendix C of FIPS-197: the canonical known-answer tests."""

    PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

    def test_aes128_encrypt(self):
        cipher = AES(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        assert cipher.encrypt_block(self.PLAINTEXT) == bytes.fromhex(
            "69c4e0d86a7b0430d8cdb78070b4c55a"
        )

    def test_aes192_encrypt(self):
        cipher = AES(bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617"))
        assert cipher.encrypt_block(self.PLAINTEXT) == bytes.fromhex(
            "dda97ca4864cdfe06eaf70a0ec0d7191"
        )

    def test_aes256_encrypt(self):
        cipher = AES(
            bytes.fromhex(
                "000102030405060708090a0b0c0d0e0f"
                "101112131415161718191a1b1c1d1e1f"
            )
        )
        assert cipher.encrypt_block(self.PLAINTEXT) == bytes.fromhex(
            "8ea2b7ca516745bfeafc49904b496089"
        )


class TestSP80038ACTR:
    """SP 800-38A F.5.1: AES-128 CTR known-answer test."""

    KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    COUNTER = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
    PLAINTEXT = bytes.fromhex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
    )
    CIPHERTEXT = bytes.fromhex(
        "874d6191b620e3261bef6864990db6ce"
        "9806f66b7970fdff8617187bb9fffdff"
    )

    def test_ctr_encrypt_vector(self):
        assert (
            aes_ctr_encrypt(self.KEY, self.COUNTER, self.PLAINTEXT)
            == self.CIPHERTEXT
        )

    def test_ctr_decrypt_vector(self):
        assert (
            aes_ctr_decrypt(self.KEY, self.COUNTER, self.CIPHERTEXT)
            == self.PLAINTEXT
        )

    def test_ctr_partial_block(self):
        short = self.PLAINTEXT[:10]
        assert (
            aes_ctr_encrypt(self.KEY, self.COUNTER, short)
            == self.CIPHERTEXT[:10]
        )

    def test_ctr_encrypt_vector_scalar_path(self, monkeypatch):
        # The numpy lane takes the vectorized kernel above; pin the
        # scalar fallback to the same vector too.
        monkeypatch.setattr(gf256_vec, "HAS_NUMPY", False)
        assert (
            aes_ctr_encrypt(self.KEY, self.COUNTER, self.PLAINTEXT)
            == self.CIPHERTEXT
        )


class TestCounterBoundaries:
    """Known answers where the counter carries or wraps inside one call."""

    KEY = bytes(range(16))

    def test_low_half_carries_into_high_half(self, ctr_path):
        high = bytes.fromhex("0123456789abcdef")
        counters = [
            high + ((1 << 64) - 2).to_bytes(8, "big"),
            high + ((1 << 64) - 1).to_bytes(8, "big"),
            bytes.fromhex("0123456789abcdf0") + bytes(8),
            bytes.fromhex("0123456789abcdf0") + (1).to_bytes(8, "big"),
        ]
        data = bytes(range(56))  # 3.5 blocks: the last one is partial
        assert aes_ctr_encrypt(self.KEY, counters[0], data) == _explicit_ctr(
            self.KEY, counters, data
        )

    def test_all_ones_wraps_to_zero(self, ctr_path):
        data = b"wrap" * 12
        assert aes_ctr_encrypt(self.KEY, WRAP_COUNTERS[0], data) == _explicit_ctr(
            self.KEY, WRAP_COUNTERS, data
        )


class TestValidation:
    def test_rejects_bad_key_length(self):
        with pytest.raises(InvalidKeyError):
            AES(b"short")

    def test_rejects_bad_block_length(self):
        with pytest.raises(InvalidKeyError):
            AES(b"0" * 16).encrypt_block(b"tiny")

    def test_rejects_bad_nonce_length(self):
        with pytest.raises(InvalidKeyError):
            aes_ctr_encrypt(b"0" * 16, b"short", b"data")


class TestProperties:

    @given(st.binary(max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_ctr_roundtrip(self, data):
        key, nonce = b"k" * 16, b"n" * 16
        assert aes_ctr_decrypt(key, nonce, aes_ctr_encrypt(key, nonce, data)) == data

    def test_ctr_counter_wraps(self):
        # Near-max counter: incrementing must wrap modulo 2^128, not raise,
        # and the blocks after the wrap must be E(0), E(1).
        nonce = WRAP_COUNTERS[0]
        data = b"x" * 48  # forces two increments past the wrap
        out = aes_ctr_encrypt(b"k" * 16, nonce, data)
        assert out == _explicit_ctr(b"k" * 16, WRAP_COUNTERS, data)
        assert aes_ctr_decrypt(b"k" * 16, nonce, out) == data

    @pytest.mark.skipif(not gf256_vec.HAS_NUMPY, reason="needs numpy")
    @given(
        st.sampled_from([16, 24, 32]).flatmap(
            lambda n: st.binary(min_size=n, max_size=n)
        ),
        st.binary(min_size=16, max_size=16),
        st.binary(max_size=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_vectorized_ctr_matches_scalar(self, key, nonce, data):
        assert aes_ctr_encrypt(key, nonce, data) == _scalar_ctr(key, nonce, data)

    def test_different_keys_differ(self):
        block = b"\x00" * 16
        assert AES(b"a" * 16).encrypt_block(block) != AES(b"b" * 16).encrypt_block(block)
