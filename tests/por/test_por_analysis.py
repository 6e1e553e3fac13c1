"""Closed-form detection/retrievability bounds (Section V-C claims)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.por.analysis import (
    chunk_failure_probability,
    cumulative_detection,
    detection_probability,
    detection_probability_binomial,
    file_irretrievability_probability,
    queries_for_detection,
)


class TestDetectionProbability:
    def test_zero_corruption(self):
        assert detection_probability(1000, 0, 100) == 0.0

    def test_zero_queries(self):
        assert detection_probability(1000, 10, 0) == 0.0

    def test_certain_detection(self):
        # Querying more than the clean segments guarantees a hit.
        assert detection_probability(10, 5, 6) == 1.0

    def test_monotone_in_queries(self):
        values = [detection_probability(10_000, 50, q) for q in (10, 100, 1000)]
        assert values[0] < values[1] < values[2]

    def test_matches_binomial_for_small_q(self):
        hyper = detection_probability(1_000_000, 5000, 1000)
        binom = detection_probability_binomial(0.005, 1000)
        assert abs(hyper - binom) < 0.01

    def test_paper_figures(self):
        """The paper's 71.3 % claim fits no single reading of its numbers."""
        # Reading 1: eps = 0.5 %, q = 1000 -> 99.3 %, not 71.3 %.
        q1000 = detection_probability_binomial(0.005, 1000)
        assert 0.99 < q1000 < 0.995
        # Reading 2: 71.3 % needs q ~= 249 at eps = 0.5 %.
        assert queries_for_detection(0.005, 0.713) in (249, 250)
        # Reading 3: 71.3 % at q = 1000 needs eps ~= 0.125 %.
        assert 0.70 < detection_probability_binomial(0.00125, 1000) < 0.72

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            detection_probability(0, 0, 0)
        with pytest.raises(ConfigurationError):
            detection_probability(10, 11, 0)
        with pytest.raises(ConfigurationError):
            detection_probability(10, 0, 11)


class TestQueriesForDetection:
    def test_roundtrip(self):
        q = queries_for_detection(0.01, 0.9)
        assert detection_probability_binomial(0.01, q) >= 0.9
        assert detection_probability_binomial(0.01, q - 1) < 0.9

    def test_zero_target(self):
        assert queries_for_detection(0.01, 0.0) == 0

    def test_rejects_certain_target(self):
        with pytest.raises(ConfigurationError):
            queries_for_detection(0.01, 1.0)


class TestCumulativeDetection:
    def test_paper_statement(self):
        # "detection ... is a cumulative process": repeated audits
        # drive detection toward certainty.
        per = 0.713
        assert cumulative_detection(per, 1) == pytest.approx(0.713)
        assert cumulative_detection(per, 5) > 0.997

    def test_zero_challenges(self):
        assert cumulative_detection(0.5, 0) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            cumulative_detection(0.5, -1)


class TestChunkFailure:
    def test_zero_epsilon(self):
        assert chunk_failure_probability(255, 16, 0.0) == 0.0

    def test_certain_failure(self):
        assert chunk_failure_probability(255, 16, 1.0) == 1.0

    def test_paper_regime_negligible(self):
        # eps = 0.5 % against a 16-error radius on 255 blocks: the
        # binomial tail is astronomically small.
        p = chunk_failure_probability(255, 16, 0.005)
        assert p < 1e-12

    def test_monotone_in_epsilon(self):
        a = chunk_failure_probability(255, 16, 0.01)
        b = chunk_failure_probability(255, 16, 0.05)
        assert a < b

    def test_matches_direct_sum_small_case(self):
        # n = 4, radius 1, eps = 0.3: P(X >= 2) by hand.
        eps = 0.3
        expected = sum(
            math.comb(4, k) * eps**k * (1 - eps) ** (4 - k) for k in (2, 3, 4)
        )
        assert chunk_failure_probability(4, 1, eps) == pytest.approx(expected)


class TestFileIrretrievability:
    def test_paper_claim_bound(self):
        """Corrupting 0.5 % must make loss < 1/200,000 (paper claim 1)."""
        two_gb_chunks = (2 * 2**30 // 16) // 223 + 1
        p = file_irretrievability_probability(two_gb_chunks, 255, 16, 0.005)
        assert p < 1.0 / 200_000

    def test_scales_with_chunks(self):
        small = file_irretrievability_probability(10, 255, 16, 0.05)
        large = file_irretrievability_probability(1000, 255, 16, 0.05)
        assert small < large <= 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            file_irretrievability_probability(0, 255, 16, 0.005)
