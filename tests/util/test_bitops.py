"""Unit and property tests for repro.util.bitops."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.util.bitops import bit_at, ceil_div, split_in_half, xor_bytes


class TestCeilDiv:
    def test_exact_division(self):
        assert ceil_div(8, 4) == 2

    def test_rounds_up(self):
        assert ceil_div(9, 4) == 3

    def test_zero_dividend(self):
        assert ceil_div(0, 5) == 0

    def test_one_remainder(self):
        assert ceil_div(5, 4) == 2

    def test_rejects_zero_divisor(self):
        with pytest.raises(ConfigurationError):
            ceil_div(1, 0)

    def test_rejects_negative_dividend(self):
        with pytest.raises(ConfigurationError):
            ceil_div(-1, 2)

    @given(st.integers(0, 10**9), st.integers(1, 10**6))
    def test_matches_float_ceiling(self, a, b):
        assert ceil_div(a, b) == (a + b - 1) // b


class TestXorBytes:
    def test_basic(self):
        assert xor_bytes(b"\x0f\xf0", b"\xf0\x0f") == b"\xff\xff"

    def test_identity_with_zero(self):
        assert xor_bytes(b"abc", b"\x00\x00\x00") == b"abc"

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            xor_bytes(b"ab", b"a")

    @given(st.binary(max_size=64))
    def test_self_inverse(self, data):
        mask = bytes((i * 37) % 256 for i in range(len(data)))
        assert xor_bytes(xor_bytes(data, mask), mask) == data


class TestBitAt:
    def test_first_bit(self):
        assert bit_at(b"\x80", 0) == 1

    def test_last_bit(self):
        assert bit_at(b"\x01", 7) == 1

    def test_crosses_byte_boundary(self):
        assert bit_at(b"\x00\x80", 8) == 1

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError):
            bit_at(b"\x00", 8)

    @given(st.binary(min_size=1, max_size=16), st.data())
    def test_agrees_with_bytes_to_bits(self, data, draw):
        index = draw.draw(st.integers(0, 8 * len(data) - 1))
        # MSB-first: bit 0 is the top bit of byte 0.
        expected = format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")[index]
        assert bit_at(data, index) == int(expected)


class TestSplitInHalf:
    def test_even_split(self):
        assert split_in_half(b"abcd") == (b"ab", b"cd")

    def test_rejects_odd_length(self):
        with pytest.raises(ConfigurationError):
            split_in_half(b"abc")
