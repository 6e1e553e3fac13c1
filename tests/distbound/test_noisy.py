"""Noise-tolerant distance bounding: robustness vs security trade-off."""

import pytest

from repro.distbound.noisy import (
    adversary_acceptance,
    choose_threshold,
    honest_acceptance,
)
from repro.errors import ConfigurationError


class TestAcceptanceFormulas:
    def test_noiseless_honest_always_passes(self):
        assert honest_acceptance(32, 0, 0.0) == 1.0

    def test_strict_verifier_on_noisy_channel_fails_often(self):
        # 5 % BER, 32 rounds, zero tolerance: pass ~ 0.95^32 ~ 0.19.
        p = honest_acceptance(32, 0, 0.05)
        assert p == pytest.approx(0.95**32, rel=1e-6)

    def test_tolerance_restores_honest_acceptance(self):
        assert honest_acceptance(32, 4, 0.05) > 0.95

    def test_monotone_in_threshold(self):
        values = [honest_acceptance(32, t, 0.05) for t in (0, 2, 4, 8)]
        assert values == sorted(values)

    def test_adversary_gains_from_tolerance(self):
        strict = adversary_acceptance(32, 0)
        tolerant = adversary_acceptance(32, 4)
        assert strict == pytest.approx(0.75**32, rel=1e-6)
        assert tolerant > strict

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            honest_acceptance(0, 0, 0.1)
        with pytest.raises(ConfigurationError):
            honest_acceptance(8, 9, 0.1)
        with pytest.raises(ConfigurationError):
            adversary_acceptance(8, 0, per_round_success=1.0)


class TestChooseThreshold:
    def test_zero_noise_zero_threshold(self):
        assert choose_threshold(32, 0.0) == 0

    def test_meets_target(self):
        threshold = choose_threshold(32, 0.05, target_false_reject=0.01)
        assert 1.0 - honest_acceptance(32, threshold, 0.05) <= 0.01
        if threshold > 0:
            assert 1.0 - honest_acceptance(32, threshold - 1, 0.05) > 0.01

    def test_security_cost_is_quantified(self):
        """The design trade-off: tolerance concedes adversary acceptance
        at fixed n (15 % at n = 32!), and the remedy is more rounds --
        at n = 96 the same noise target leaves the adversary < 1 %."""
        threshold_32 = choose_threshold(32, 0.05)
        cost_32 = adversary_acceptance(32, threshold_32)
        assert cost_32 > adversary_acceptance(32, 0)
        assert cost_32 > 0.05  # tolerance at n=32 is genuinely expensive

        threshold_96 = choose_threshold(96, 0.05)
        cost_96 = adversary_acceptance(96, threshold_96)
        assert cost_96 < 0.01  # extra rounds buy the security back
        assert honest_acceptance(96, threshold_96, 0.05) >= 0.99
