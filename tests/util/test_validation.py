"""Unit tests for the validation helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.util.validation import (
    check_positive,
    check_probability,
    check_range,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("x", 1.5)

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ConfigurationError, match="x"):
            check_positive("x", 0)

    def test_accepts_zero_when_not_strict(self):
        check_positive("x", 0, strict=False)

    def test_rejects_negative_when_not_strict(self):
        with pytest.raises(ConfigurationError):
            check_positive("x", -0.1, strict=False)


class TestCheckRange:
    def test_inclusive_bounds(self):
        check_range("x", 0.0, 0.0, 1.0)
        check_range("x", 1.0, 0.0, 1.0)

    def test_rejects_outside(self):
        with pytest.raises(ConfigurationError, match=r"\[0.0, 1.0\]"):
            check_range("x", 1.5, 0.0, 1.0)


class TestCheckProbability:
    def test_accepts_half(self):
        check_probability("p", 0.5)

    def test_rejects_above_one(self):
        with pytest.raises(ConfigurationError):
            check_probability("p", 1.01)
