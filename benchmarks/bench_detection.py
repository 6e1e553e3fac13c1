"""Claim C2: corruption-detection probability.

Paper (Section V-C): with 1,000,000 segments, 0.5 % corrupted and
1,000 queried per challenge, detection is "about 71.3 %" per challenge
and irretrievability is < 1/200,000.  The exact formula gives 99.3 %
at q = 1000 (71.3 % corresponds to q ~ 249); the bench reports the
formula family, cross-checks it against live protocol simulation, and
sweeps k (the number of audit rounds: detection vs audit duration).
"""

import pytest

from benchmarks.conftest import record_table
from repro.analysis.reporting import format_table
from repro.cloud.adversary import CorruptionAttack
from repro.core.session import GeoProofSession
from repro.crypto.rng import DeterministicRNG
from repro.geo.coords import GeoPoint
from repro.por.analysis import (
    cumulative_detection,
    detection_probability,
    detection_probability_binomial,
    file_irretrievability_probability,
    queries_for_detection,
)
from repro.por.parameters import TEST_PARAMS


def test_detection_formulas(benchmark):
    """The closed forms at the paper's parameters."""

    def compute():
        return {
            "hyper_q1000": detection_probability(1_000_000, 5_000, 1_000),
            "binom_q1000": detection_probability_binomial(0.005, 1_000),
            "binom_q249": detection_probability_binomial(0.005, 249),
            "q_for_713": queries_for_detection(0.005, 0.713),
            "cumulative_5": cumulative_detection(0.713, 5),
            "irretrievable": file_irretrievability_probability(
                (2 * 2**30 // 16) // 223 + 1, 255, 16, 0.005
            ),
        }

    values = benchmark(compute)
    rendered = format_table(
        ["quantity", "paper", "measured"],
        [
            ["P(detect), q=1000", "'about 71.3 %'", f"{values['binom_q1000']:.3f}"],
            ["P(detect), q=249", "(71.3 % matches q~249)", f"{values['binom_q249']:.3f}"],
            ["q for 71.3 %", "--", values["q_for_713"]],
            ["P(detect in 5 audits at 71.3 %)", "cumulative", f"{values['cumulative_5']:.5f}"],
            ["P(file irretrievable)", "< 1/200,000", f"{values['irretrievable']:.2e}"],
        ],
        title="C2 -- corruption-detection probabilities (eps = 0.5 %)",
    )
    record_table("detection", rendered)

    assert values["hyper_q1000"] == pytest.approx(values["binom_q1000"], abs=0.01)
    assert 0.99 < values["binom_q1000"] < 0.995
    assert values["binom_q249"] == pytest.approx(0.713, abs=0.01)
    assert values["irretrievable"] < 1.0 / 200_000


def test_detection_empirical_vs_formula(benchmark):
    """Live protocol simulation must track the hypergeometric formula."""

    def simulate():
        session = GeoProofSession.build(
            datacentre_location=GeoPoint(-27.47, 153.02),
            params=TEST_PARAMS,
            seed="detect-bench",
        )
        data = DeterministicRNG("detect-data").random_bytes(40_000)
        session.outsource(b"f", data)
        n = session.files[b"f"].n_segments
        epsilon = 0.05
        session.provider.set_strategy(
            CorruptionAttack("home", epsilon, DeterministicRNG("adv"))
        )
        k = 20
        trials = 60
        detected = sum(
            1 for _ in range(trials) if not session.audit(b"f", k=k).verdict.accepted
        )
        n_corrupt = round(epsilon * n)
        return detected / trials, detection_probability(n, n_corrupt, k)

    empirical, theory = benchmark.pedantic(simulate, rounds=1, iterations=1)
    record_table(
        "detection-empirical",
        format_table(
            ["quantity", "value"],
            [
                ["empirical detection rate", f"{empirical:.3f}"],
                ["hypergeometric formula", f"{theory:.3f}"],
            ],
            title="C2 -- simulated vs closed-form detection",
        ),
    )
    assert empirical == pytest.approx(theory, abs=0.17)


def test_detection_k_ablation(benchmark):
    """Ablation: audit rounds k vs detection and audit duration."""

    def sweep():
        rows = []
        for k in (5, 25, 100, 250, 1000):
            p = detection_probability_binomial(0.005, k)
            # Audit duration: k rounds x ~(disk + LAN) each.
            duration_ms = k * 13.5
            rows.append((k, p, duration_ms))
        return rows

    rows = benchmark(sweep)
    rendered = format_table(
        ["k rounds", "P(detect 0.5 % corruption)", "audit duration ms"],
        [[k, f"{p:.4f}", d] for k, p, d in rows],
        title="Ablation -- rounds k vs detection vs audit cost",
    )
    record_table("detection-k", rendered)
    probabilities = [p for _, p, _ in rows]
    assert probabilities == sorted(probabilities)
    # Diminishing returns: the step 250 -> 1000 gains little.
    assert probabilities[-1] - probabilities[-2] < 0.3
