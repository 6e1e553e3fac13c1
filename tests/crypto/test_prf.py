"""Tests for the HMAC-SHA256 PRF wrappers."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.prf import prf, prf_many, prf_stream
from repro.errors import ConfigurationError


class TestPRF:
    def test_matches_hmac_construction(self):
        key, label, message = b"k", b"label", b"msg"
        expected = hmac.new(key, b"label\x00msg", hashlib.sha256).digest()
        assert prf(key, label, message) == expected

    def test_rejects_nul_in_label(self):
        with pytest.raises(ConfigurationError):
            prf(b"k", b"bad\x00label", b"m")

    def test_label_separates_domains(self):
        assert prf(b"k", b"a", b"m") != prf(b"k", b"b", b"m")

    def test_deterministic(self):
        assert prf(b"k", b"l", b"m") == prf(b"k", b"l", b"m")


class TestPRFMany:
    def test_matches_scalar_prf(self):
        messages = [b"", b"a", b"bb", bytes(100), b"a" * 1000]
        assert list(prf_many(b"k", b"l", messages)) == [
            prf(b"k", b"l", m) for m in messages
        ]

    def test_empty(self):
        assert list(prf_many(b"k", b"l", [])) == []

    def test_rejects_nul_in_label(self):
        with pytest.raises(ConfigurationError):
            list(prf_many(b"k", b"bad\x00label", [b"m"]))

    @given(
        st.binary(min_size=1, max_size=64),
        st.lists(st.binary(max_size=32), max_size=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_scalar_equivalence_property(self, key, messages):
        assert list(prf_many(key, b"label", messages)) == [
            prf(key, b"label", m) for m in messages
        ]


class TestPRFStream:
    def test_length_exact(self):
        for n in (0, 1, 31, 32, 33, 100):
            assert len(prf_stream(b"k", b"l", b"m", n)) == n

    def test_prefix_consistency(self):
        long = prf_stream(b"k", b"l", b"m", 100)
        short = prf_stream(b"k", b"l", b"m", 40)
        assert long[:40] == short

    def test_rejects_negative_length(self):
        with pytest.raises(ConfigurationError):
            prf_stream(b"k", b"l", b"m", -1)
