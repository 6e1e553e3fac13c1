"""The closed-form LRU model vs the simulated cache.

The satellite property sweep: over (cache_bytes, file size, k rounds)
the analytic hit rate must track a real
:class:`~repro.storage.cache.LRUCache` driven with the verifier's
exact challenge-drawing discipline, and the exact escape probability
must respect the paper's with-replacement bound.
"""

import pytest

from repro.economics.cache_model import LRUHitModel, simulate_hit_rate
from repro.errors import ConfigurationError

ENTRY = 30

#: The property grid: (n_segments, cache_fraction, k_rounds).  Spans
#: empty, fractional, and full caches across file sizes and audit
#: depths; every cell's sample mean must sit within tolerance of the
#: closed form.
SWEEP = [
    (32, 0.0, 4),
    (32, 0.5, 4),
    (32, 1.0, 4),
    (64, 0.25, 6),
    (64, 0.75, 6),
    (128, 0.1, 8),
    (128, 0.5, 8),
    (128, 0.9, 8),
    (256, 0.33, 10),
]


class TestModelAlgebra:
    def test_hit_rate_is_capacity_over_population(self):
        model = LRUHitModel(
            cache_bytes=ENTRY * 10, entry_bytes=ENTRY, n_segments=40
        )
        assert model.capacity_entries == 10
        assert model.hit_rate == pytest.approx(0.25)

    def test_partial_entry_does_not_count(self):
        model = LRUHitModel(
            cache_bytes=ENTRY * 10 + ENTRY - 1,
            entry_bytes=ENTRY,
            n_segments=40,
        )
        assert model.capacity_entries == 10

    def test_oversized_cache_saturates_at_population(self):
        model = LRUHitModel(
            cache_bytes=ENTRY * 1000, entry_bytes=ENTRY, n_segments=40
        )
        assert model.cached_entries == 40
        assert model.hit_rate == 1.0
        assert model.prewarm_bytes == 40 * ENTRY

    def test_escape_zero_when_cache_smaller_than_k(self):
        model = LRUHitModel(
            cache_bytes=ENTRY * 3, entry_bytes=ENTRY, n_segments=100
        )
        assert model.escape_probability(4) == 0.0
        assert model.detection_probability(4) == 1.0

    def test_escape_one_for_full_cache(self):
        model = LRUHitModel(
            cache_bytes=ENTRY * 50, entry_bytes=ENTRY, n_segments=50
        )
        assert model.escape_probability(10) == pytest.approx(1.0)
        assert model.paper_bound(10) == pytest.approx(0.0)

    @pytest.mark.parametrize("n,frac,k", SWEEP)
    def test_exact_escape_never_exceeds_paper_bound(self, n, frac, k):
        """Hypergeometric escape <= hit^k: the bound is conservative."""
        model = LRUHitModel(
            cache_bytes=round(frac * n) * ENTRY,
            entry_bytes=ENTRY,
            n_segments=n,
        )
        assert (
            model.escape_probability(k)
            <= model.hit_rate**k + 1e-12
        )
        assert (
            model.detection_probability(k)
            >= model.paper_bound(k) - 1e-12
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LRUHitModel(cache_bytes=-1, entry_bytes=ENTRY, n_segments=10)
        with pytest.raises(ConfigurationError):
            LRUHitModel(cache_bytes=0, entry_bytes=0, n_segments=10)
        with pytest.raises(ConfigurationError):
            LRUHitModel(cache_bytes=0, entry_bytes=ENTRY, n_segments=0)
        model = LRUHitModel(
            cache_bytes=ENTRY, entry_bytes=ENTRY, n_segments=10
        )
        with pytest.raises(ConfigurationError):
            model.escape_probability(0)
        with pytest.raises(ConfigurationError):
            model.paper_bound(-1)


class TestAnalyticTracksSimulation:
    """The satellite sweep: closed form vs the real LRUCache."""

    @pytest.mark.parametrize("n,frac,k", SWEEP)
    def test_prewarmed_hit_rate_within_tolerance(self, n, frac, k):
        model = LRUHitModel(
            cache_bytes=round(frac * n) * ENTRY,
            entry_bytes=ENTRY,
            n_segments=n,
        )
        simulated = simulate_hit_rate(
            cache_bytes=round(frac * n) * ENTRY,
            entry_bytes=ENTRY,
            n_segments=n,
            n_audits=300,
            k_rounds=k,
            seed=f"sweep-{n}-{frac}-{k}",
        )
        assert simulated == pytest.approx(model.hit_rate, abs=0.06)

    def test_degenerate_extremes_are_exact(self):
        for frac, expected in ((0.0, 0.0), (1.0, 1.0)):
            simulated = simulate_hit_rate(
                cache_bytes=round(frac * 64) * ENTRY,
                entry_bytes=ENTRY,
                n_segments=64,
                n_audits=50,
                k_rounds=6,
                seed="extremes",
            )
            assert simulated == expected

    def test_zero_capacity_cache_never_hits(self):
        assert (
            simulate_hit_rate(
                cache_bytes=0,
                entry_bytes=ENTRY,
                n_segments=32,
                n_audits=20,
                k_rounds=4,
                seed="zero",
            )
            == 0.0
        )

    def test_simulation_validation(self):
        with pytest.raises(ConfigurationError):
            simulate_hit_rate(
                cache_bytes=0,
                entry_bytes=ENTRY,
                n_segments=10,
                n_audits=0,
                k_rounds=2,
            )
        with pytest.raises(ConfigurationError):
            simulate_hit_rate(
                cache_bytes=0,
                entry_bytes=ENTRY,
                n_segments=10,
                n_audits=5,
                k_rounds=11,  # k > population
            )
