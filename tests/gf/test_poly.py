"""Polynomial arithmetic over GF(2^8)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gf.gf256 import GF256
from repro.gf.poly import Poly

coeff_lists = st.lists(st.integers(0, 255), max_size=12)


class TestConstruction:
    def test_trims_leading_zeros(self):
        assert Poly([1, 2, 0, 0]).coeffs == (1, 2)

    def test_zero(self):
        assert Poly.zero().is_zero()
        assert Poly.zero().degree == -1

    def test_one(self):
        assert Poly.one().degree == 0
        assert Poly.one().eval(17) == 1

    def test_monomial(self):
        m = Poly.monomial(3, 5)
        assert m.degree == 3
        assert m.coeffs == (0, 0, 0, 5)

    def test_repr_readable(self):
        assert "x^1" in repr(Poly([0, 3]))
        assert repr(Poly.zero()) == "Poly(0)"


class TestArithmetic:
    @given(coeff_lists, coeff_lists)
    def test_addition_commutative(self, a, b):
        assert Poly(a) + Poly(b) == Poly(b) + Poly(a)

    @given(coeff_lists)
    def test_addition_self_cancels(self, a):
        assert (Poly(a) + Poly(a)).is_zero()

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=50)
    def test_multiplication_commutative(self, a, b):
        assert Poly(a) * Poly(b) == Poly(b) * Poly(a)

    @given(coeff_lists, coeff_lists, st.integers(0, 255))
    @settings(max_examples=50)
    def test_multiplication_matches_evaluation(self, a, b, x):
        product = Poly(a) * Poly(b)
        assert product.eval(x) == GF256.mul(Poly(a).eval(x), Poly(b).eval(x))

    @given(coeff_lists, st.integers(0, 255))
    def test_scale_matches_evaluation(self, a, s):
        assert Poly(a).scale(s).eval(7) == GF256.mul(Poly(a).eval(7), s)

    def test_shift(self):
        assert Poly([1]).shift(2) == Poly.monomial(2)

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=50)
    def test_divmod_identity(self, a, b):
        dividend, divisor = Poly(a), Poly(b)
        if divisor.is_zero():
            with pytest.raises(ZeroDivisionError):
                dividend.divmod(divisor)
            return
        quotient, remainder = dividend.divmod(divisor)
        assert quotient * divisor + remainder == dividend
        assert remainder.degree < divisor.degree or remainder.is_zero()


class TestCalculus:
    def test_derivative_char2(self):
        # d/dx (c0 + c1 x + c2 x^2 + c3 x^3) = c1 + c3 x^2 in char 2.
        p = Poly([9, 7, 5, 3])
        assert p.derivative() == Poly([7, 0, 3])

    def test_derivative_of_constant(self):
        assert Poly([5]).derivative().is_zero()

    def test_find_roots(self):
        # (x - 3)(x - 7) = x^2 + (3+7)x + 21 over GF(2^8).
        p = Poly([GF256.mul(3, 7), GF256.add(3, 7), 1])
        assert [x for x in range(256) if p.eval(x) == 0] == [3, 7]
