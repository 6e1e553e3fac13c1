"""Noise-tolerant distance bounding (Singelee-Preneel style).

The paper's survey cites distance bounding "in noisy environments"
[40] and Reid-et-al.-under-noise analyses [29]: on a real RF channel,
bits flip, so a verifier that demands *all* n responses correct will
false-reject honest provers.  The standard fix accepts up to ``t``
wrong bits out of ``n`` rounds.

Tolerance trades security for robustness, quantifiably:

* an honest prover over a channel with bit-error rate ``p_bit`` passes
  with probability ``P(Binomial(n, p_bit) <= t)``;
* a mafia-fraud adversary (per-round success 3/4) passes with
  ``P(Binomial(n, 1/4) <= t)`` -- rising quickly in ``t``.

:func:`choose_threshold` picks the smallest ``t`` meeting a target
false-reject rate, and :func:`adversary_acceptance` quantifies what
that choice concedes.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.util.validation import check_probability


def _binomial_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p), exact summation in log space."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    total = 0.0
    for i in range(k + 1):
        log_term = (
            math.lgamma(n + 1)
            - math.lgamma(i + 1)
            - math.lgamma(n - i + 1)
            + i * math.log(p)
            + (n - i) * math.log1p(-p)
        )
        total += math.exp(log_term)
    return min(total, 1.0)


def honest_acceptance(n_rounds: int, threshold: int, bit_error_rate: float) -> float:
    """P(honest prover passes): at most ``threshold`` of n bits flip."""
    if n_rounds <= 0:
        raise ConfigurationError(f"n_rounds must be positive, got {n_rounds}")
    if not 0 <= threshold <= n_rounds:
        raise ConfigurationError(
            f"threshold must be in [0, {n_rounds}], got {threshold}"
        )
    check_probability("bit_error_rate", bit_error_rate)
    return _binomial_cdf(threshold, n_rounds, bit_error_rate)


def adversary_acceptance(
    n_rounds: int, threshold: int, per_round_success: float = 0.75
) -> float:
    """P(adversary passes): at most ``threshold`` of its guesses wrong.

    ``per_round_success`` is 3/4 for Hancke-Kuhn-style pre-ask attacks,
    1/2 for Brands-Chaum-style guessing.
    """
    if not 0.0 < per_round_success < 1.0:
        raise ConfigurationError(
            f"per_round_success must be in (0,1), got {per_round_success}"
        )
    return _binomial_cdf(threshold, n_rounds, 1.0 - per_round_success)


def choose_threshold(
    n_rounds: int,
    bit_error_rate: float,
    *,
    target_false_reject: float = 0.01,
) -> int:
    """Smallest tolerance ``t`` keeping honest false-rejects under target."""
    check_probability("target_false_reject", target_false_reject)
    for threshold in range(n_rounds + 1):
        if 1.0 - honest_acceptance(n_rounds, threshold, bit_error_rate) <= target_false_reject:
            return threshold
    return n_rounds
