"""Attacker ledgers and per-tenant defence quotes."""

import math

import pytest

from repro.economics.cache_model import LRUHitModel
from repro.economics.costs import CostModel
from repro.economics.pricing import (
    attack_economics,
    finite_or_none,
    min_deterrent_audit_rate,
    price_tenant,
)
from repro.errors import ConfigurationError

GB = 1_000_000_000
ENTRY = 4096

#: A 100 GB victim: big enough that the dollar amounts are readable.
FILE_BYTES = 100 * GB
N_SEGMENTS = FILE_BYTES // ENTRY


def model_for(fraction: float) -> LRUHitModel:
    return LRUHitModel(
        cache_bytes=round(fraction * N_SEGMENTS) * ENTRY,
        entry_bytes=ENTRY,
        n_segments=N_SEGMENTS,
    )


class TestAttackEconomics:
    def test_empty_cache_caught_first_audit(self):
        ledger = attack_economics(
            cost_model=CostModel(),
            hit_model=model_for(0.0),
            k_rounds=10,
            audits_per_month=30.0,
            file_bytes=FILE_BYTES,
        )
        assert ledger.detection_probability == 1.0
        # One audit in: 1/30th of a month of savings vs the penalty.
        assert ledger.expected_months_to_detection == pytest.approx(
            1 / 30
        )
        assert not ledger.profitable
        assert ledger.roi < 0

    def test_full_cache_never_caught(self):
        ledger = attack_economics(
            cost_model=CostModel(),
            hit_model=model_for(1.0),
            k_rounds=10,
            audits_per_month=30.0,
            file_bytes=FILE_BYTES,
        )
        assert ledger.detection_probability == 0.0
        assert math.isinf(ledger.expected_months_to_detection)
        # RAM for the whole file costs far more than the storage
        # delta saves: infinitely-long losses.
        assert ledger.expected_profit_usd == -math.inf
        assert not ledger.profitable

    def test_full_cache_with_free_ram_is_undeterrable(self):
        free_ram = CostModel(ram_usd_per_gb_month=0.0)
        ledger = attack_economics(
            cost_model=free_ram,
            hit_model=model_for(1.0),
            k_rounds=10,
            audits_per_month=30.0,
            file_bytes=FILE_BYTES,
        )
        assert ledger.expected_profit_usd == math.inf
        assert ledger.profitable

    def test_zero_audit_rate_never_detects(self):
        ledger = attack_economics(
            cost_model=CostModel(ram_usd_per_gb_month=0.0),
            hit_model=model_for(0.1),
            k_rounds=10,
            audits_per_month=0.0,
            file_bytes=FILE_BYTES,
        )
        assert math.isinf(ledger.expected_months_to_detection)
        assert ledger.profitable  # free cache, no audits: pure savings

    def test_savings_scale_with_storage_delta(self):
        wide = CostModel(
            storage_usd_per_gb_month=0.05,
            remote_storage_usd_per_gb_month=0.01,
        )
        ledger = attack_economics(
            cost_model=wide,
            hit_model=model_for(0.0),
            k_rounds=5,
            audits_per_month=10.0,
            file_bytes=FILE_BYTES,
        )
        assert ledger.savings_usd_per_month == pytest.approx(
            100 * 0.04
        )

    def test_to_dict_sanitises_infinities(self):
        ledger = attack_economics(
            cost_model=CostModel(),
            hit_model=model_for(1.0),
            k_rounds=10,
            audits_per_month=30.0,
            file_bytes=FILE_BYTES,
        )
        payload = ledger.to_dict()
        assert payload["expected_months_to_detection"] is None
        assert payload["expected_profit_usd"] is None
        assert payload["profitable"] is False


class TestMinDeterrentRate:
    def test_higher_penalty_needs_fewer_audits(self):
        kwargs = dict(
            entry_bytes=ENTRY,
            n_segments=N_SEGMENTS,
            k_rounds=10,
            file_bytes=FILE_BYTES,
        )
        lax, _ = min_deterrent_audit_rate(
            cost_model=CostModel(violation_penalty_usd=10.0), **kwargs
        )
        strict, _ = min_deterrent_audit_rate(
            cost_model=CostModel(violation_penalty_usd=1000.0), **kwargs
        )
        assert 0 < strict < lax

    def test_rate_zero_when_relay_saves_nothing(self):
        rate, _ = min_deterrent_audit_rate(
            cost_model=CostModel(
                storage_usd_per_gb_month=0.01,
                remote_storage_usd_per_gb_month=0.01,
            ),
            entry_bytes=ENTRY,
            n_segments=N_SEGMENTS,
            k_rounds=10,
            file_bytes=FILE_BYTES,
        )
        assert rate == 0.0

    def test_free_full_file_ram_is_undeterrable(self):
        rate, model = min_deterrent_audit_rate(
            cost_model=CostModel(ram_usd_per_gb_month=0.0),
            entry_bytes=ENTRY,
            n_segments=N_SEGMENTS,
            k_rounds=10,
            file_bytes=FILE_BYTES,
        )
        assert math.isinf(rate)
        assert model.hit_rate == 1.0

    def test_deterrence_solves_the_profit_equation(self):
        """At the returned rate the worst cache's profit is ~zero; any
        higher rate drives it negative."""
        cost_model = CostModel()
        rate, worst = min_deterrent_audit_rate(
            cost_model=cost_model,
            entry_bytes=ENTRY,
            n_segments=N_SEGMENTS,
            k_rounds=10,
            file_bytes=FILE_BYTES,
        )
        assert rate > 0
        at_threshold = attack_economics(
            cost_model=cost_model,
            hit_model=worst,
            k_rounds=10,
            audits_per_month=rate,
            file_bytes=FILE_BYTES,
        )
        assert at_threshold.expected_profit_usd == pytest.approx(
            0.0, abs=1e-6
        )
        above = attack_economics(
            cost_model=cost_model,
            hit_model=worst,
            k_rounds=10,
            audits_per_month=rate * 1.5,
            file_bytes=FILE_BYTES,
        )
        assert above.expected_profit_usd < 0

    def test_rejects_bad_fractions(self):
        with pytest.raises(ConfigurationError):
            min_deterrent_audit_rate(
                cost_model=CostModel(),
                entry_bytes=ENTRY,
                n_segments=N_SEGMENTS,
                k_rounds=10,
                file_bytes=FILE_BYTES,
                cache_fractions=(0.5, 1.5),
            )
        with pytest.raises(ConfigurationError):
            min_deterrent_audit_rate(
                cost_model=CostModel(),
                entry_bytes=ENTRY,
                n_segments=N_SEGMENTS,
                k_rounds=10,
                file_bytes=FILE_BYTES,
                cache_fractions=(),
            )


class TestTenantQuote:
    def quote(self, **overrides):
        kwargs = dict(
            tenant="alice",
            provider="acme",
            cost_model=CostModel(),
            file_bytes=FILE_BYTES,
            entry_bytes=ENTRY,
            n_segments=N_SEGMENTS,
            k_rounds=50,
            rtt_max_ms=16.1,
        )
        kwargs.update(overrides)
        return price_tenant(**kwargs)

    def test_quote_covers_the_minimum_rate(self):
        quote = self.quote()
        assert quote.deterrable
        assert quote.audits_per_month >= quote.min_audits_per_month
        assert quote.price_usd_per_month > quote.audit_cost_usd_per_month

    def test_floor_applies_when_attack_already_uneconomic(self):
        quote = self.quote(
            cost_model=CostModel(
                storage_usd_per_gb_month=0.01,
                remote_storage_usd_per_gb_month=0.01,
            ),
        )
        assert quote.min_audits_per_month == 0.0
        assert quote.audits_per_month == 1.0

    def test_undeterrable_quote_is_flagged(self):
        quote = self.quote(
            cost_model=CostModel(ram_usd_per_gb_month=0.0)
        )
        assert not quote.deterrable
        assert math.isinf(quote.audits_per_month)
        payload = quote.to_dict()
        assert payload["min_audits_per_month"] is None
        assert payload["deterrable"] is False

    def test_timing_radius_present_with_budget(self):
        quote = self.quote()
        assert quote.timing_radius_km is not None
        assert quote.timing_radius_km > 0
        assert self.quote(rtt_max_ms=None).timing_radius_km is None

    def test_to_dict_round_trips_to_json(self):
        import json

        payload = json.dumps(self.quote().to_dict())
        assert json.loads(payload)["tenant"] == "alice"


class TestFiniteOrNone:
    def test_sanitisation(self):
        assert finite_or_none(1.5) == 1.5
        assert finite_or_none(0.0) == 0.0
        assert finite_or_none(math.inf) is None
        assert finite_or_none(-math.inf) is None
        assert finite_or_none(math.nan) is None
        assert finite_or_none(None) is None
