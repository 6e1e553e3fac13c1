"""Dense polynomials over GF(2^8).

Coefficients are stored lowest-degree first (``coeffs[i]`` multiplies
``x^i``), which makes evaluation and the Berlekamp-Massey recurrences
read like the textbook formulas.  The zero polynomial is ``Poly([])``.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.gf.gf256 import EXP_TABLE, LOG_TABLE, mul_fast


class Poly:
    """An immutable polynomial over GF(2^8)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: list[int] | tuple[int, ...]) -> None:
        trimmed = list(coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        for c in trimmed:
            if not 0 <= c <= 255:
                raise ConfigurationError(f"coefficient out of range: {c}")
        self.coeffs: tuple[int, ...] = tuple(trimmed)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        """The zero polynomial."""
        return cls([])

    @classmethod
    def one(cls) -> "Poly":
        """The constant polynomial 1."""
        return cls([1])

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "Poly":
        """``coeff * x^degree``."""
        if degree < 0:
            raise ConfigurationError(f"degree must be >= 0, got {degree}")
        return cls([0] * degree + [coeff])

    # -- basic properties -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        """True iff this is the zero polynomial."""
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = [
            f"{c}*x^{i}" if i else str(c)
            for i, c in enumerate(self.coeffs)
            if c
        ]
        return f"Poly({' + '.join(terms)})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        longer, shorter = (
            (self.coeffs, other.coeffs)
            if len(self.coeffs) >= len(other.coeffs)
            else (other.coeffs, self.coeffs)
        )
        out = list(longer)
        for i, c in enumerate(shorter):
            out[i] ^= c
        return Poly(out)

    # Subtraction equals addition in characteristic 2.
    __sub__ = __add__

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            log_a = LOG_TABLE[a]
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] ^= EXP_TABLE[log_a + LOG_TABLE[b]]
        return Poly(out)

    def shift(self, amount: int) -> "Poly":
        """Multiply by ``x^amount``."""
        if amount < 0:
            raise ConfigurationError(f"shift must be >= 0, got {amount}")
        if self.is_zero():
            return Poly.zero()
        return Poly([0] * amount + list(self.coeffs))

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Polynomial long division: returns (quotient, remainder)."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        remainder = list(self.coeffs)
        quotient = [0] * max(0, len(remainder) - len(divisor.coeffs) + 1)
        lead_inv_log = 255 - LOG_TABLE[divisor.coeffs[-1]]
        while len(remainder) >= len(divisor.coeffs) and any(remainder):
            if remainder[-1] == 0:
                remainder.pop()
                continue
            shift_by = len(remainder) - len(divisor.coeffs)
            factor = EXP_TABLE[LOG_TABLE[remainder[-1]] + lead_inv_log]
            quotient[shift_by] = factor
            for i, c in enumerate(divisor.coeffs):
                if c:
                    remainder[shift_by + i] ^= mul_fast(c, factor)
            remainder.pop()
        return Poly(quotient), Poly(remainder)

    def __mod__(self, divisor: "Poly") -> "Poly":
        return self.divmod(divisor)[1]

    def __floordiv__(self, divisor: "Poly") -> "Poly":
        return self.divmod(divisor)[0]

    # -- evaluation ---------------------------------------------------------

    def eval(self, x: int) -> int:
        """Evaluate at a field element via Horner's rule."""
        result = 0
        for c in reversed(self.coeffs):
            result = mul_fast(result, x) ^ c
        return result

    def derivative(self) -> "Poly":
        """Formal derivative; in characteristic 2 even-power terms vanish.

        d/dx sum(c_i x^i) = sum(i * c_i * x^(i-1)) where ``i * c_i`` is
        c_i added i times, i.e. c_i when i is odd and 0 when even.
        """
        out = [
            c if i % 2 == 1 else 0
            for i, c in enumerate(self.coeffs)
        ][1:]
        return Poly(out)
