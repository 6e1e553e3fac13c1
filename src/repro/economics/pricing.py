"""Attacker ROI and per-tenant defence pricing.

Two closed-form ledgers sit on top of the cache model and the price
list:

* :func:`attack_economics` -- the relayer's books.  Savings accrue at
  the premium-vs-cheap storage delta; spend is front-site RAM, prewarm
  staging and per-miss relay bandwidth; the clock on all of it is the
  expected time to detection, ``1 / (p * audit_rate)`` months with
  ``p`` the per-audit detection probability the cache model yields.
  Detection costs the violation penalty.
* :func:`price_tenant` -- the defender's answer.  Solve the attacker's
  profit for the audit rate that drives it negative at the attacker's
  *best* cache size, add headroom, and price the verifier-side cost of
  sustaining that rate.  The quote also carries the timing-radius
  margin: the distance inside which a relay's flight time fits the RTT
  budget outright, where cache economics are moot and only site
  diversity (the replication auditor) helps.

Solving ``profit(r) < 0`` for the audit rate: with savings rate ``S``,
RAM rate ``M``, per-audit miss bandwidth ``b``, prewarm ``W`` and
penalty ``P``,

    profit(r) = (S - M) / (p r) - b / p - W - P

so the minimum deterrent rate is ``r* = (S - M) / (b + p (W + P))``
when ``S > M`` (and zero otherwise -- an attack that loses money per
month needs no deterring).  A cache big enough to cover the whole file
makes ``p = 0``; if RAM that size still beats the storage delta the
attack is *undeterrable by auditing* -- but then the data effectively
lives at the front site in RAM, which is where the SLA wanted it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.calibration import relay_distance_bound_km
from repro.errors import ConfigurationError
from repro.util.validation import check_positive

from repro.economics.cache_model import LRUHitModel
from repro.economics.costs import CostModel

#: Default cache sweep, as fractions of the tenant's total segments.
DEFAULT_CACHE_FRACTIONS = (
    0.0, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0,
)


def finite_or_none(value: float | None) -> float | None:
    """JSON-safe float: ``inf``/``nan`` become ``None``."""
    if value is None or not math.isfinite(value):
        return None
    return value


@dataclass(frozen=True)
class AttackEconomics:
    """The relayer's expected books under a given audit regime.

    All rates are USD per month; ``expected_months_to_detection`` and
    ``expected_profit_usd`` are ``inf`` when the audit regime never
    catches the configured cache (``detection_probability == 0`` or a
    zero audit rate).
    """

    cache_bytes: int
    hit_rate: float
    detection_probability: float
    audits_per_month: float
    savings_usd_per_month: float
    ram_usd_per_month: float
    relay_usd_per_month: float
    prewarm_usd: float
    penalty_usd: float
    expected_months_to_detection: float
    expected_profit_usd: float
    expected_spend_usd: float

    @property
    def roi(self) -> float:
        """Expected profit over expected spend (sign = viability)."""
        if self.expected_spend_usd > 0 and math.isfinite(
            self.expected_spend_usd
        ):
            return self.expected_profit_usd / self.expected_spend_usd
        # Degenerate ledgers (free attack, or infinite horizon): the
        # sign of the net monthly rate is what matters.
        rate = (
            self.savings_usd_per_month
            - self.ram_usd_per_month
            - self.relay_usd_per_month
        )
        denominator = self.ram_usd_per_month + self.relay_usd_per_month
        if denominator > 0:
            return rate / denominator
        return math.inf if rate > 0 else (-math.inf if rate < 0 else 0.0)

    @property
    def profitable(self) -> bool:
        """Whether mounting the attack has positive expected value."""
        return self.expected_profit_usd > 0

    def to_dict(self) -> dict:
        """JSON-serialisable ledger (non-finite values become null)."""
        return {
            "cache_bytes": self.cache_bytes,
            "hit_rate": self.hit_rate,
            "detection_probability": self.detection_probability,
            "audits_per_month": self.audits_per_month,
            "savings_usd_per_month": self.savings_usd_per_month,
            "ram_usd_per_month": self.ram_usd_per_month,
            "relay_usd_per_month": self.relay_usd_per_month,
            "prewarm_usd": self.prewarm_usd,
            "penalty_usd": self.penalty_usd,
            "expected_months_to_detection": finite_or_none(
                self.expected_months_to_detection
            ),
            "expected_profit_usd": finite_or_none(
                self.expected_profit_usd
            ),
            "expected_spend_usd": finite_or_none(self.expected_spend_usd),
            "roi": finite_or_none(self.roi),
            "profitable": self.profitable,
        }


def attack_economics(
    *,
    cost_model: CostModel,
    hit_model: LRUHitModel,
    k_rounds: int,
    audits_per_month: float,
    file_bytes: int,
) -> AttackEconomics:
    """Price one prefetch-relay configuration end to end.

    ``file_bytes`` is the stored size of the relocated data (what the
    savings and penalty scale on); the cache geometry and detection
    probability come from ``hit_model``; ``audits_per_month`` is the
    verifier's challenge rate.
    """
    check_positive("audits_per_month", audits_per_month, strict=False)
    check_positive("file_bytes", file_bytes)
    hit = hit_model.hit_rate
    p = hit_model.detection_probability(k_rounds)
    savings = cost_model.relay_savings_usd(file_bytes)
    ram = cost_model.ram_usd(hit_model.cache_bytes)
    miss_bytes_per_audit = k_rounds * (1.0 - hit) * hit_model.entry_bytes
    relay = audits_per_month * cost_model.bandwidth_usd(
        miss_bytes_per_audit
    )
    prewarm = cost_model.bandwidth_usd(hit_model.prewarm_bytes)
    penalty = cost_model.violation_penalty_usd
    if p > 0.0 and audits_per_month > 0.0:
        months = 1.0 / (p * audits_per_month)
        profit = (savings - ram - relay) * months - prewarm - penalty
        spend = (ram + relay) * months + prewarm + penalty
    else:
        months = math.inf
        rate = savings - ram - relay
        profit = math.inf if rate > 0 else (
            -math.inf if rate < 0 else -(prewarm + penalty)
        )
        spend = (
            math.inf if (ram + relay) > 0 else prewarm + penalty
        )
    return AttackEconomics(
        cache_bytes=hit_model.cache_bytes,
        hit_rate=hit,
        detection_probability=p,
        audits_per_month=audits_per_month,
        savings_usd_per_month=savings,
        ram_usd_per_month=ram,
        relay_usd_per_month=relay,
        prewarm_usd=prewarm,
        penalty_usd=penalty,
        expected_months_to_detection=months,
        expected_profit_usd=profit,
        expected_spend_usd=spend,
    )


def min_deterrent_audit_rate(
    *,
    cost_model: CostModel,
    entry_bytes: int,
    n_segments: int,
    k_rounds: int,
    file_bytes: int,
    cache_fractions: tuple[float, ...] = DEFAULT_CACHE_FRACTIONS,
) -> tuple[float, LRUHitModel]:
    """The audit rate that prices out the attacker's *best* cache.

    Sweeps cache sizes (as fractions of the tenant's segment
    population), solves ``profit(r) < 0`` at each, and returns the
    worst-case ``(rate, hit model)`` pair -- the rate a defender must
    sustain so no swept cache size leaves the attack profitable.
    ``math.inf`` means undeterrable by auditing (a full-file RAM cache
    is cheaper than the storage delta; see the module docstring for
    why that case is self-defeating).
    """
    if not cache_fractions:
        raise ConfigurationError("cache_fractions must not be empty")
    worst_rate = 0.0
    worst_model = LRUHitModel(
        cache_bytes=0, entry_bytes=entry_bytes, n_segments=n_segments
    )
    for fraction in cache_fractions:
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(
                f"cache fractions must be in [0, 1], got {fraction}"
            )
        model = LRUHitModel(
            cache_bytes=math.ceil(fraction * n_segments) * entry_bytes,
            entry_bytes=entry_bytes,
            n_segments=n_segments,
        )
        savings = cost_model.relay_savings_usd(file_bytes)
        ram = cost_model.ram_usd(model.cache_bytes)
        if savings - ram <= 0.0:
            continue  # loses money every month: no audits needed
        p = model.detection_probability(k_rounds)
        if p <= 0.0:
            return math.inf, model  # full cache still profitable
        miss_bytes = k_rounds * (1.0 - model.hit_rate) * entry_bytes
        b = cost_model.bandwidth_usd(miss_bytes)
        prewarm = cost_model.bandwidth_usd(model.prewarm_bytes)
        rate = (savings - ram) / (
            b + p * (prewarm + cost_model.violation_penalty_usd)
        )
        if rate > worst_rate:
            worst_rate, worst_model = rate, model
    return worst_rate, worst_model


@dataclass(frozen=True)
class TenantQuote:
    """One tenant's priced defence against cache/prefetch relaying.

    ``min_audits_per_month`` is the exact deterrence threshold (profit
    crosses zero there); ``audits_per_month`` is the quoted rate with
    headroom (and a contractual floor -- corruption detection needs a
    cadence even when relaying is already uneconomic).
    ``timing_radius_km`` is the margin auditing cannot close: a relay
    site inside it fits the RTT budget outright.
    """

    tenant: str
    provider: str
    n_files: int
    file_bytes: int
    n_segments: int
    entry_bytes: int
    k_rounds: int
    worst_case_cache_bytes: int
    worst_case_hit_rate: float
    min_audits_per_month: float
    audits_per_month: float
    audit_cost_usd_per_month: float
    price_usd_per_month: float
    break_even_cache_bytes: int
    timing_radius_km: float | None

    @property
    def deterrable(self) -> bool:
        """Whether a finite audit rate prices the attack out."""
        return math.isfinite(self.min_audits_per_month)

    def to_dict(self) -> dict:
        """JSON-serialisable quote (non-finite values become null)."""
        return {
            "tenant": self.tenant,
            "provider": self.provider,
            "n_files": self.n_files,
            "file_bytes": self.file_bytes,
            "n_segments": self.n_segments,
            "entry_bytes": self.entry_bytes,
            "k_rounds": self.k_rounds,
            "worst_case_cache_bytes": self.worst_case_cache_bytes,
            "worst_case_hit_rate": self.worst_case_hit_rate,
            "min_audits_per_month": finite_or_none(
                self.min_audits_per_month
            ),
            "audits_per_month": finite_or_none(self.audits_per_month),
            "audit_cost_usd_per_month": finite_or_none(
                self.audit_cost_usd_per_month
            ),
            "price_usd_per_month": finite_or_none(
                self.price_usd_per_month
            ),
            "break_even_cache_bytes": self.break_even_cache_bytes,
            "timing_radius_km": self.timing_radius_km,
            "deterrable": self.deterrable,
        }


def price_tenant(
    *,
    tenant: str,
    provider: str,
    cost_model: CostModel,
    file_bytes: int,
    entry_bytes: int,
    n_segments: int,
    k_rounds: int,
    n_files: int = 1,
    rtt_max_ms: float | None = None,
) -> TenantQuote:
    """Price one tenant's defence.

    Finds the minimum deterrent audit rate over the default cache
    sweep, adds 10 % headroom (the threshold itself only makes the
    attacker's profit *zero*), floors it at one audit a month, prices
    the verifier-side cost of sustaining that cadence
    (:meth:`CostModel.audit_usd`), and marks the result up by a 25 %
    margin.  ``rtt_max_ms`` (the tenant's SLA budget) adds the
    timing-radius margin via
    :func:`~repro.core.calibration.relay_distance_bound_km`.
    """
    min_rate, worst_model = min_deterrent_audit_rate(
        cost_model=cost_model,
        entry_bytes=entry_bytes,
        n_segments=n_segments,
        k_rounds=k_rounds,
        file_bytes=file_bytes,
        cache_fractions=DEFAULT_CACHE_FRACTIONS,
    )
    if math.isfinite(min_rate):
        quoted = max(min_rate * 1.10, 1.0)
    else:
        quoted = math.inf
    audit_cost = (
        cost_model.audit_usd(quoted, k_rounds, entry_bytes)
        if math.isfinite(quoted)
        else math.inf
    )
    return TenantQuote(
        tenant=tenant,
        provider=provider,
        n_files=n_files,
        file_bytes=file_bytes,
        n_segments=n_segments,
        entry_bytes=entry_bytes,
        k_rounds=k_rounds,
        worst_case_cache_bytes=worst_model.cache_bytes,
        worst_case_hit_rate=worst_model.hit_rate,
        min_audits_per_month=min_rate,
        audits_per_month=quoted,
        audit_cost_usd_per_month=audit_cost,
        price_usd_per_month=audit_cost * 1.25,
        break_even_cache_bytes=cost_model.break_even_cache_bytes(
            file_bytes
        ),
        timing_radius_km=(
            relay_distance_bound_km(rtt_max_ms)
            if rtt_max_ms is not None
            else None
        ),
    )
