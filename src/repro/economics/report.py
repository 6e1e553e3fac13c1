"""The economics deliverable: sweep cells + quotes, one document.

:func:`build_economics_report` runs an
:class:`~repro.economics.campaign.AdversaryCampaign` sweep, prices
every tenant's defence (:func:`~repro.economics.pricing.price_tenant`),
and folds both into an :class:`EconomicsReport` -- ROI curves per
engine, the break-even cache size, the detection-latency-vs-cache-bytes
table, and the analytic-vs-simulated agreement numbers the CI bench
gates on.  Everything is a frozen dataclass over deterministic inputs,
rendered through the same ASCII tables as the paper benches and
exportable as JSON (the ``economics --json`` CLI path).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import format_table
from repro.errors import ConfigurationError

from repro.economics.campaign import (
    DEFAULT_SWEEP_FRACTIONS,
    AdversaryCampaign,
    CampaignCell,
    VictimGeometry,
    measure_tenant_facts,
)
from repro.economics.costs import CostModel
from repro.economics.pricing import TenantQuote, finite_or_none, price_tenant

def _cell_value(value: float | None) -> object:
    """Table-safe rendering: None -> ``-``, non-finite -> ``inf``/``-inf``."""
    if value is None:
        return "-"
    if finite_or_none(value) is None:
        return "inf" if value > 0 else "-inf"
    return value


@dataclass(frozen=True)
class EconomicsReport:
    """Adversarial cache/prefetch economics, measured and priced."""

    attack: str
    engines: tuple[str, ...]
    k_rounds: int
    simulated_hours: float
    n_providers: int
    n_files: int
    geometry: VictimGeometry
    cost_model: CostModel
    cells: tuple[CampaignCell, ...]
    quotes: tuple[TenantQuote, ...]
    #: Slot-vs-event stream equivalence with the adversary injected
    #: (None when the check was skipped).
    equivalence_ok: bool | None = None

    # -- aggregates ------------------------------------------------------

    @property
    def break_even_cache_bytes(self) -> int:
        """Spend-side break-even: where RAM outprices the relay savings.

        Closed form off the price list
        (:meth:`~repro.economics.costs.CostModel.break_even_cache_bytes`):
        the largest cache a *rational* attacker would provision for
        the victim's stored bytes.
        """
        return self.cost_model.break_even_cache_bytes(
            self.geometry.stored_bytes
        )

    @property
    def profitable_cache_bytes(self) -> int | None:
        """Smallest swept cache with positive expected attacker profit.

        ``None`` -- the expected outcome under sane prices -- means no
        swept cache size left the campaign's attack profitable under
        the measured audit cadence: the defence is priced out at every
        point of the sweep.
        """
        profitable = sorted(
            cell.cache_bytes
            for cell in self.cells
            if cell.economics is not None and cell.economics.profitable
        )
        return profitable[0] if profitable else None

    @property
    def max_hit_rate_error(self) -> float:
        """Worst analytic-vs-simulated hit-rate disagreement (sweep-wide)."""
        errors = [
            cell.hit_rate_error
            for cell in self.cells
            if cell.attack == "prefetch-relay"
        ]
        return max(errors) if errors else 0.0

    @property
    def min_bound_margin(self) -> float | None:
        """Worst observed-minus-bound detection margin (None = n/a)."""
        margins = [
            cell.bound_margin
            for cell in self.cells
            if cell.bound_margin is not None
        ]
        return min(margins) if margins else None

    @property
    def bound_satisfied(self) -> bool:
        """Whether every cell's observed detection met the paper bound.

        Per-cell check with the statistical slack documented on
        :attr:`~repro.economics.campaign.CampaignCell.bound_slack`;
        vacuously true for attacks the bound does not describe.
        """
        return all(cell.bound_met for cell in self.cells)

    def roi_curve(self, engine: str) -> list[tuple[int, float | None]]:
        """``(cache_bytes, roi)`` points for one engine's sweep."""
        return [
            (
                cell.cache_bytes,
                finite_or_none(cell.economics.roi),
            )
            for cell in self.cells
            if cell.engine == engine and cell.economics is not None
        ]

    def quote_for(self, tenant: str) -> TenantQuote | None:
        """Look up one tenant's defence quote."""
        for quote in self.quotes:
            if quote.tenant == tenant:
                return quote
        return None

    # -- machine-readable export ----------------------------------------

    def to_dict(self) -> dict:
        """The whole report as JSON-serialisable plain data."""
        return {
            "attack": self.attack,
            "engines": list(self.engines),
            "k_rounds": self.k_rounds,
            "simulated_hours": self.simulated_hours,
            "n_providers": self.n_providers,
            "n_files": self.n_files,
            "victim": self.geometry.to_dict(),
            "cost_model": self.cost_model.to_dict(),
            "break_even_cache_bytes": self.break_even_cache_bytes,
            "profitable_cache_bytes": self.profitable_cache_bytes,
            "max_hit_rate_error": self.max_hit_rate_error,
            "min_bound_margin": self.min_bound_margin,
            "bound_satisfied": self.bound_satisfied,
            "equivalence_ok": self.equivalence_ok,
            "roi_curves": {
                engine: [
                    {"cache_bytes": cache_bytes, "roi": roi}
                    for cache_bytes, roi in self.roi_curve(engine)
                ]
                for engine in self.engines
            },
            "cells": [cell.to_dict() for cell in self.cells],
            "quotes": [quote.to_dict() for quote in self.quotes],
        }

    # -- rendering ------------------------------------------------------

    def render(self) -> str:
        """ASCII economics report (sweep, detection latency, quotes)."""
        sections = [
            format_table(
                ["attack", "engines", "k", "sim hours", "victim",
                 "segments", "entry B", "stored B"],
                [[
                    self.attack,
                    "+".join(self.engines),
                    self.k_rounds,
                    self.simulated_hours,
                    f"{self.geometry.provider}@{self.geometry.front_site}",
                    self.geometry.n_segments,
                    self.geometry.entry_bytes,
                    self.geometry.stored_bytes,
                ]],
                title="Adversary campaign",
                decimals=1,
            ),
            format_table(
                ["engine", "cache B", "frac", "hit (model)", "hit (sim)",
                 "bound", "observed", "audits", "first det (h)",
                 "all det (h)", "profit $/run", "roi"],
                [
                    [
                        cell.engine,
                        cell.cache_bytes,
                        cell.cache_fraction,
                        cell.analytic_hit_rate,
                        cell.simulated_hit_rate,
                        (cell.detection_bound
                         if cell.detection_bound is not None else "-"),
                        cell.observed_detection_rate,
                        cell.victim_audits,
                        _cell_value(cell.first_detection_hours),
                        _cell_value(cell.worst_detection_hours),
                        _cell_value(
                            cell.economics.expected_profit_usd
                            if cell.economics is not None
                            else None
                        ),
                        _cell_value(
                            cell.economics.roi
                            if cell.economics is not None
                            else None
                        ),
                    ]
                    for cell in self.cells
                ],
                title=(
                    "Cache sweep: detection latency and attacker ROI vs "
                    "cache bytes"
                ),
                decimals=3,
            ),
            format_table(
                ["tenant", "provider", "min audits/mo", "quoted/mo",
                 "audit $/mo", "price $/mo", "break-even cache B",
                 "timing radius km", "deterrable"],
                [
                    [
                        quote.tenant,
                        quote.provider,
                        _cell_value(quote.min_audits_per_month),
                        _cell_value(quote.audits_per_month),
                        _cell_value(quote.audit_cost_usd_per_month),
                        _cell_value(quote.price_usd_per_month),
                        quote.break_even_cache_bytes,
                        _cell_value(quote.timing_radius_km),
                        quote.deterrable,
                    ]
                    for quote in self.quotes
                ],
                title="Per-tenant defence pricing",
                decimals=6,
            ),
        ]
        summary = [
            f"break-even cache size: {self.break_even_cache_bytes} bytes "
            f"(RAM spend = relay savings)",
            "attack profitable at: "
            + (
                f"{self.profitable_cache_bytes} bytes"
                if self.profitable_cache_bytes is not None
                else "no swept cache size (defence priced out)"
            ),
            f"analytic-vs-simulated hit rate max error: "
            f"{self.max_hit_rate_error:.4f}",
            "detection bound (1 - (cache/file)^k): "
            + ("met" if self.bound_satisfied else "VIOLATED"),
        ]
        if self.equivalence_ok is not None:
            summary.append(
                "slot-vs-event stream equivalence (adversary injected): "
                + ("ok" if self.equivalence_ok else "BROKEN")
            )
        sections.append("\n".join(summary))
        return "\n\n".join(sections)


def _quote_tenants(fleet, campaign: AdversaryCampaign) -> list[TenantQuote]:
    """Price every tenant's defence off a pre-injection fleet.

    Must run before any adversary is injected: the quote inputs
    (stored bytes, segment counts, wire sizes, SLA budgets) are
    honest-state facts read from each tenant's contracted home store.
    """
    quotes = []
    per_tenant: dict[tuple[str, str], list] = {}
    for task in fleet.tasks():
        per_tenant.setdefault(
            (task.tenant, task.provider_name), []
        ).append(task)
    for (tenant, provider), tasks in sorted(per_tenant.items()):
        segments, stored, entry_bytes, rtt_max_ms = (
            measure_tenant_facts(fleet, provider, tasks)
        )
        quotes.append(
            price_tenant(
                tenant=tenant,
                provider=provider,
                cost_model=campaign.cost_model,
                file_bytes=stored,
                entry_bytes=entry_bytes,
                n_segments=sum(n for _, n in segments),
                k_rounds=campaign.k_rounds,
                n_files=len(tasks),
                rtt_max_ms=rtt_max_ms,
            )
        )
    return quotes


def build_economics_report(
    campaign: AdversaryCampaign,
    *,
    cache_fractions: tuple[float, ...] | None = None,
    engines: tuple[str, ...] = ("slot", "event"),
    check_equivalence: bool = False,
) -> EconomicsReport:
    """Run a campaign sweep and price every tenant's defence.

    The sweep is driven cell by cell through
    :meth:`~repro.economics.campaign.AdversaryCampaign.prepare_cell` /
    :meth:`~repro.economics.campaign.AdversaryCampaign.run_on` so the
    victim geometry and the per-tenant quote inputs are read off the
    *first* cell's pre-injection fleet -- no extra probe build.
    ``check_equivalence`` additionally runs the single-site
    slot-vs-event anchor with the adversary injected (two extra fleet
    runs); the CLI and CI bench turn it on.
    """
    if not engines:
        raise ConfigurationError("engines must not be empty")
    if campaign.attack != "prefetch-relay":
        # A cacheless attack has no cache axis; an explicit sweep
        # request is a configuration mistake, not something to
        # silently replace with the single zero-cache cell.
        if cache_fractions is not None and any(
            fraction != 0.0 for fraction in cache_fractions
        ):
            raise ConfigurationError(
                f"the {campaign.attack!r} attack takes no cache; "
                f"cache_fractions must be omitted or all-zero, got "
                f"{tuple(cache_fractions)}"
            )
        fractions: tuple[float, ...] = (0.0,)
    elif cache_fractions is not None:
        fractions = tuple(cache_fractions)
    else:
        fractions = DEFAULT_SWEEP_FRACTIONS
    if not fractions:
        raise ConfigurationError("cache_fractions must not be empty")
    cells = []
    geometry = None
    quotes: list[TenantQuote] = []
    for engine in engines:
        for fraction in fractions:
            fleet, cell_geometry = campaign.prepare_cell(engine)
            if geometry is None:
                geometry = cell_geometry
                quotes = _quote_tenants(fleet, campaign)
            cells.append(
                campaign.run_on(fleet, cell_geometry, cache_fraction=fraction)
            )
    return EconomicsReport(
        attack=campaign.attack,
        engines=tuple(engines),
        k_rounds=campaign.k_rounds,
        simulated_hours=campaign.hours,
        n_providers=campaign.n_providers,
        n_files=campaign.n_files,
        geometry=geometry,
        cost_model=campaign.cost_model,
        cells=tuple(cells),
        quotes=tuple(quotes),
        equivalence_ok=(
            campaign.slot_event_streams_match()
            if check_equivalence
            else None
        ),
    )
