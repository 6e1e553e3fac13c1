"""Audit scheduling: how often must the TPA audit?

"In POR the detection of file corruption is a cumulative process" --
the operational question a deployment faces is the *schedule*: given a
per-audit detection probability p (from k and the corruption fraction)
and an audit cost (k rounds x Delta-t_max of verifier time plus
bandwidth), how many audits -- and therefore how much time -- until a
violation is caught with the required confidence?

These helpers turn the paper's cumulative-detection observation into
deployment arithmetic, used by the compliance example and the k-sweep
bench.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.por.analysis import detection_probability_binomial
from repro.util.validation import check_positive, check_probability


@dataclass(frozen=True)
class AuditSchedule:
    """A concrete schedule and its detection characteristics."""

    k_rounds: int
    interval_hours: float
    per_audit_detection: float
    audits_to_confidence: int
    hours_to_confidence: float
    round_cost_ms: float

    @property
    def daily_audit_time_ms(self) -> float:
        """Verifier busy-time per day under this schedule."""
        audits_per_day = 24.0 / self.interval_hours
        return audits_per_day * self.k_rounds * self.round_cost_ms


def audits_until_detection(
    per_audit_detection: float, confidence: float
) -> int:
    """Audits needed so cumulative detection reaches ``confidence``.

    ``n = ceil(log(1 - confidence) / log(1 - p))``.
    """
    check_probability("confidence", confidence)
    if not 0.0 < per_audit_detection <= 1.0:
        raise ConfigurationError(
            f"per_audit_detection must be in (0, 1], got {per_audit_detection}"
        )
    if confidence == 0.0:
        return 0
    if per_audit_detection == 1.0:
        return 1
    if confidence >= 1.0:
        raise ConfigurationError("confidence 1.0 needs infinitely many audits")
    return max(
        1,
        math.ceil(
            math.log(1.0 - confidence) / math.log(1.0 - per_audit_detection)
        ),
    )


def expected_audits_until_detection(per_audit_detection: float) -> float:
    """Mean audits to first detection (geometric distribution)."""
    if not 0.0 < per_audit_detection <= 1.0:
        raise ConfigurationError(
            f"per_audit_detection must be in (0, 1], got {per_audit_detection}"
        )
    return 1.0 / per_audit_detection


def plan_schedule(
    *,
    epsilon: float,
    k_rounds: int,
    interval_hours: float,
) -> AuditSchedule:
    """Build the schedule card for given audit parameters.

    ``epsilon`` is the corruption fraction the deployment must catch at
    99 % confidence; each round costs the paper's Delta-t_max, 16.1 ms.
    """
    check_probability("epsilon", epsilon)
    check_positive("interval_hours", interval_hours)
    if k_rounds <= 0:
        raise ConfigurationError(f"k_rounds must be positive, got {k_rounds}")
    per_audit = detection_probability_binomial(epsilon, k_rounds)
    if per_audit == 0.0:
        raise ConfigurationError(
            "zero detection probability: epsilon or k_rounds too small"
        )
    n_audits = audits_until_detection(per_audit, 0.99)
    return AuditSchedule(
        k_rounds=k_rounds,
        interval_hours=interval_hours,
        per_audit_detection=per_audit,
        audits_to_confidence=n_audits,
        hours_to_confidence=n_audits * interval_hours,
        round_cost_ms=16.1,
    )


def cheapest_schedule(
    *,
    epsilon: float,
    interval_hours: float,
    max_detection_latency_hours: float,
) -> AuditSchedule:
    """The smallest k whose schedule meets the detection deadline.

    Sweeps candidate round counts and returns the first (cheapest)
    schedule, at 99 % confidence and the paper's round cost, whose
    ``hours_to_confidence`` fits inside the allowed detection latency.
    Raises if none fits -- the caller must then audit more often or
    accept a longer exposure window.
    """
    check_positive("max_detection_latency_hours", max_detection_latency_hours)
    for k in (5, 10, 25, 50, 100, 250, 500, 1000):
        schedule = plan_schedule(
            epsilon=epsilon, k_rounds=k, interval_hours=interval_hours
        )
        if schedule.hours_to_confidence <= max_detection_latency_hours:
            return schedule
    raise ConfigurationError(
        "no candidate k meets the detection deadline; audit more often"
    )
