"""Audit-scheduling arithmetic."""

import pytest

from repro.analysis.scheduling import (
    AuditSchedule,
    audits_until_detection,
    cheapest_schedule,
    expected_audits_until_detection,
    plan_schedule,
)
from repro.errors import ConfigurationError


class TestAuditsUntilDetection:
    def test_certain_detection_needs_one(self):
        assert audits_until_detection(1.0, 0.99) == 1

    def test_paper_rate(self):
        # p = 0.713 per audit -> 4 audits reach 99 %.
        n = audits_until_detection(0.713, 0.99)
        assert n == 4
        assert 1 - (1 - 0.713) ** n >= 0.99
        assert 1 - (1 - 0.713) ** (n - 1) < 0.99

    def test_zero_confidence(self):
        assert audits_until_detection(0.5, 0.0) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            audits_until_detection(0.0, 0.5)
        with pytest.raises(ConfigurationError):
            audits_until_detection(0.5, 1.0)


class TestExpectedAudits:
    def test_geometric_mean(self):
        assert expected_audits_until_detection(0.5) == pytest.approx(2.0)
        assert expected_audits_until_detection(0.713) == pytest.approx(1.4025, abs=1e-3)


class TestPlanSchedule:
    def test_paper_parameters(self):
        schedule = plan_schedule(
            epsilon=0.005, k_rounds=250, interval_hours=24.0
        )
        assert schedule.per_audit_detection == pytest.approx(0.714, abs=0.01)
        assert schedule.audits_to_confidence == 4
        assert schedule.hours_to_confidence == pytest.approx(96.0)

    def test_daily_cost(self):
        schedule = plan_schedule(epsilon=0.01, k_rounds=100, interval_hours=12.0)
        # Two audits/day x 100 rounds x 16.1 ms = 3220 ms of verifier time.
        assert schedule.daily_audit_time_ms == pytest.approx(3220.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            plan_schedule(epsilon=0.0, k_rounds=10, interval_hours=1.0)
        with pytest.raises(ConfigurationError):
            plan_schedule(epsilon=0.01, k_rounds=0, interval_hours=1.0)


class TestCheapestSchedule:
    def test_picks_smallest_sufficient_k(self):
        schedule = cheapest_schedule(
            epsilon=0.01,
            interval_hours=24.0,
            max_detection_latency_hours=24.0 * 7,
        )
        # k must catch 1 % corruption within 7 daily audits at 99 %.
        assert schedule.hours_to_confidence <= 24.0 * 7
        # And the next-smaller candidate must NOT suffice.
        candidates = [5, 10, 25, 50, 100, 250, 500, 1000]
        smaller = [k for k in candidates if k < schedule.k_rounds]
        if smaller:
            weaker = plan_schedule(
                epsilon=0.01, k_rounds=smaller[-1], interval_hours=24.0
            )
            assert weaker.hours_to_confidence > 24.0 * 7

    def test_impossible_deadline_raises(self):
        with pytest.raises(ConfigurationError):
            cheapest_schedule(
                epsilon=0.0001,
                interval_hours=24.0,
                max_detection_latency_hours=24.0,
            )

    def test_tighter_deadline_needs_bigger_k(self):
        loose = cheapest_schedule(
            epsilon=0.005,
            interval_hours=24.0,
            max_detection_latency_hours=24.0 * 30,
        )
        tight = cheapest_schedule(
            epsilon=0.005,
            interval_hours=24.0,
            max_detection_latency_hours=24.0 * 3,
        )
        assert tight.k_rounds >= loose.k_rounds
