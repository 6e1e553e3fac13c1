"""Experiment runners: one function per paper table/figure.

Benches, tests and examples all call these, so the numbers printed by
``pytest benchmarks/`` are produced by exactly the code the test suite
validates.  Each function returns structured rows; the bench renders
them with :mod:`repro.analysis.reporting`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.adversary import RelayAttack
from repro.cloud.provider import DataCentre
from repro.core.calibration import calibrate_rtt_max, relay_distance_bound_km
from repro.core.session import GeoProofSession
from repro.crypto.rng import DeterministicRNG
from repro.geo.coords import GeoPoint, destination_point, haversine_km
from repro.geo.datasets import (
    AUSTRALIA_HOSTS,
    BRISBANE_ADSL_HOST,
    QUT_LAN_MACHINES,
)
from repro.netsim.latency import InternetModel, LANModel
from repro.por.parameters import TEST_PARAMS
from repro.storage.hdd import DISK_CATALOGUE, HDDModel, IBM_36Z15


# ---------------------------------------------------------------------------
# Table I -- HDD look-up latency.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table1Row:
    """One disk's modelled latency decomposition."""

    name: str
    rpm: int
    seek_ms: float
    rotate_ms: float
    transfer_ms: float
    lookup_ms: float


def table1_hdd_latency(read_bytes: int = 512) -> list[Table1Row]:
    """Reproduce Table I plus the paper's derived look-up totals."""
    rows = []
    for spec in DISK_CATALOGUE:
        model = HDDModel(spec)
        rows.append(
            Table1Row(
                name=spec.name,
                rpm=spec.rpm,
                seek_ms=spec.avg_seek_ms,
                rotate_ms=spec.avg_rotate_ms,
                transfer_ms=model.transfer_ms(read_bytes),
                lookup_ms=model.lookup_ms(read_bytes),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Table II -- LAN latency within QUT.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Row:
    """One machine placement's simulated LAN RTT."""

    machine: int
    location_label: str
    distance_km: float
    rtt_ms: float
    under_1ms: bool


def table2_lan_latency(*, seed: str = "table2") -> list[Table2Row]:
    """Simulate the Table II ping experiment (64-byte payloads).

    Far placements (45 km) traverse more switches, as inter-campus
    links do; every placement must still come in under 1 ms.
    """
    rng = DeterministicRNG(seed)
    rows = []
    for placement in QUT_LAN_MACHINES:
        n_switches = 2 if placement.distance_km < 0.1 else (
            4 if placement.distance_km < 1.0 else 6
        )
        lan = LANModel(n_switches=n_switches)
        rtt_ms = lan.rtt_ms(
            placement.distance_km, 64, rng.fork(f"m{placement.machine}")
        )
        rows.append(
            Table2Row(
                machine=placement.machine,
                location_label=placement.location_label,
                distance_km=placement.distance_km,
                rtt_ms=rtt_ms,
                under_1ms=rtt_ms < 1.0,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Table III -- Internet latency within Australia.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table3Row:
    """One host: paper's numbers next to the model's."""

    url: str
    paper_distance_km: float
    model_distance_km: float
    paper_latency_ms: float
    model_latency_ms: float


def table3_internet_latency() -> list[Table3Row]:
    """Reproduce Table III with the calibrated Internet model.

    The model's deterministic mean, without sampling jitter.  Distances
    use haversine, which tracks the paper's "Google Maps Distance
    Calculator" figures.
    """
    model = InternetModel()
    rows = []
    for host in AUSTRALIA_HOSTS:
        distance_km = haversine_km(BRISBANE_ADSL_HOST, host.location)
        # The paper's street-level distances for the two Brisbane hosts
        # (8 / 12 km) reflect road distance; use them for the model too
        # so the comparison is apples-to-apples.
        model_distance_km = max(distance_km, host.paper_distance_km)
        rtt_ms = model.rtt_ms(model_distance_km)
        rows.append(
            Table3Row(
                url=host.url,
                paper_distance_km=host.paper_distance_km,
                model_distance_km=model_distance_km,
                paper_latency_ms=host.paper_latency_ms,
                model_latency_ms=rtt_ms,
            )
        )
    return rows


def table3_correlation() -> float:
    """Pearson correlation between distance and modelled latency.

    The paper's claim is "a positive relationship between the physical
    distance and the Internet latency"; the model must reproduce a
    strong positive correlation (the measured data's is ~0.98).
    """
    rows = table3_internet_latency()
    xs = [row.paper_distance_km for row in rows]
    ys = [row.model_latency_ms for row in rows]
    n = len(xs)
    mean_x, mean_y = sum(xs) / n, sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    return cov / (var_x**0.5 * var_y**0.5)


# ---------------------------------------------------------------------------
# Fig. 6 -- relay attack detection versus distance.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelaySweepRow:
    """Relay outcome at one front-to-remote distance."""

    relay_distance_km: float
    max_rtt_ms: float
    rtt_max_ms: float
    detected: bool


def fig6_relay_sweep(
    distances_km: list[float] | None = None,
    *,
    file_bytes: int = 20_000,
    k: int = 15,
    seed: str = "fig6",
) -> list[RelaySweepRow]:
    """Audit outcomes as the adversary's remote site moves away.

    The remote site runs the paper's fast disk (IBM 36Z15).  Detection
    must flip from 'escapes' to 'caught' somewhere near the calibrated
    relay bound; the bench prints the crossover next to the paper's
    360 km figure.
    """
    distances = distances_km or [0.0, 50.0, 100.0, 200.0, 360.0, 500.0, 1000.0, 3000.0]
    rows = []
    data = DeterministicRNG(seed).random_bytes(file_bytes)
    for distance in distances:
        session = GeoProofSession.build(
            datacentre_location=GeoPoint(-27.47, 153.02),
            params=TEST_PARAMS,
            seed=f"{seed}-{distance}",
        )
        session.outsource(b"file", data)
        if distance > 0.0:
            remote_location = destination_point(
                GeoPoint(-27.47, 153.02), 270.0, distance
            )
            session.provider.add_datacentre(
                DataCentre("remote", remote_location, disk=IBM_36Z15)
            )
            session.provider.relocate(b"file", "remote")
            session.provider.set_strategy(RelayAttack("home", "remote"))
        outcome = session.audit(b"file", k=k)
        rows.append(
            RelaySweepRow(
                relay_distance_km=distance,
                max_rtt_ms=outcome.verdict.max_rtt_ms,
                rtt_max_ms=outcome.verdict.rtt_max_ms,
                detected=not outcome.verdict.accepted,
            )
        )
    return rows


def fig6_paper_bound_km() -> float:
    """The paper's 360 km relay bound (its own convention)."""
    return relay_distance_bound_km(paper_convention=True)


def fig6_tight_bound_km(margin_ms: float = 0.0) -> float:
    """The tight relay bound for the default calibration."""
    budget = calibrate_rtt_max(margin_ms=margin_ms)
    return relay_distance_bound_km(budget.rtt_max_ms)
