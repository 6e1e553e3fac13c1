"""Closed-form LRU hit rates under uniform PRF challenges.

The attack being priced: a relaying provider keeps a front-site RAM
cache of ``cache_bytes`` and hopes the verifier's challenge lands in
it.  GeoProof draws challenge indices with a PRF, i.e. uniformly over
the file's ``n`` segments, so LRU keeps *some* set of
``c = cache_bytes // entry_bytes`` distinct segments and each
challenge hits with probability exactly ``min(c, n) / n`` -- the
recency order never helps against a uniform stream, which is the whole
point of challenge unpredictability.  That one ratio, exponentiated
over an audit's ``k`` rounds, is the paper's detection bound
``1 - (cache/file)^k``.

:class:`LRUHitModel` packages the closed forms (steady-state and
prewarmed hit rate, exact without-replacement escape probability, the
paper bound) and :func:`simulate_hit_rate` drives a real
:class:`~repro.storage.cache.LRUCache` with the same uniform draws so
tests and the CI bench can hold the algebra to the simulation within
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto.rng import DeterministicRNG
from repro.errors import ConfigurationError
from repro.storage.cache import LRUCache


@dataclass(frozen=True)
class LRUHitModel:
    """Analytic LRU behaviour for one tenant's challenge stream.

    Attributes
    ----------
    cache_bytes:
        The adversary's front-site RAM budget.
    entry_bytes:
        Wire size of one cached segment (payload + tag + framing --
        what :meth:`~repro.por.file_format.Segment.wire_bytes`
        actually occupies).
    n_segments:
        Total segments the uniform challenge stream draws from (sum
        across the tenant's files for a shared cache).
    """

    cache_bytes: int
    entry_bytes: int
    n_segments: int

    def __post_init__(self) -> None:
        if self.cache_bytes < 0:
            raise ConfigurationError(
                f"cache_bytes must be >= 0, got {self.cache_bytes}"
            )
        if self.entry_bytes <= 0:
            raise ConfigurationError(
                f"entry_bytes must be positive, got {self.entry_bytes}"
            )
        if self.n_segments <= 0:
            raise ConfigurationError(
                f"n_segments must be positive, got {self.n_segments}"
            )

    # -- capacity -------------------------------------------------------

    @property
    def capacity_entries(self) -> int:
        """Whole segments the byte budget holds."""
        return self.cache_bytes // self.entry_bytes

    @property
    def cached_entries(self) -> int:
        """Distinct segments a warm cache actually keeps."""
        return min(self.capacity_entries, self.n_segments)

    @property
    def prewarm_bytes(self) -> int:
        """Bytes a full prewarm moves remote -> front."""
        return self.cached_entries * self.entry_bytes

    # -- hit rates ------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Steady-state (or prewarmed) per-challenge hit probability.

        Uniform challenges make LRU's recency order irrelevant: the
        cache holds *some* ``cached_entries`` distinct segments and
        each draw hits with exactly that fraction of the population.
        """
        return self.cached_entries / self.n_segments

    # -- audit outcomes -------------------------------------------------

    def escape_probability(self, k_rounds: int) -> float:
        """Exact P(all ``k`` challenges hit the warm cache).

        Challenges within one audit are drawn *without* replacement
        (:meth:`~repro.crypto.rng.DeterministicRNG.sample_indices`),
        so the escape probability is hypergeometric --
        ``C(c, k) / C(n, k)`` -- which is at most ``hit_rate^k``: the
        with-replacement paper bound is conservative in the
        defender's favour.
        """
        if k_rounds <= 0:
            raise ConfigurationError(
                f"k_rounds must be positive, got {k_rounds}"
            )
        c = self.cached_entries
        if k_rounds > c:
            return 0.0
        log_p = 0.0
        for i in range(k_rounds):
            log_p += math.log(c - i) - math.log(self.n_segments - i)
        return math.exp(log_p)

    def detection_probability(self, k_rounds: int) -> float:
        """Exact P(at least one of ``k`` challenges misses the cache).

        A miss forces the relay round trip, which blows the max-RTT
        gate -- so this is the per-audit detection probability of the
        prefetch-relay attack.
        """
        return 1.0 - self.escape_probability(k_rounds)

    def paper_bound(self, k_rounds: int) -> float:
        """The paper's ``1 - (cache/file)^k`` detection lower bound."""
        if k_rounds <= 0:
            raise ConfigurationError(
                f"k_rounds must be positive, got {k_rounds}"
            )
        return 1.0 - self.hit_rate**k_rounds

    def to_dict(self) -> dict:
        """The model's parameters and closed forms as plain data."""
        return {
            "cache_bytes": self.cache_bytes,
            "entry_bytes": self.entry_bytes,
            "n_segments": self.n_segments,
            "capacity_entries": self.capacity_entries,
            "cached_entries": self.cached_entries,
            "hit_rate": self.hit_rate,
        }


def simulate_hit_rate(
    *,
    cache_bytes: int,
    entry_bytes: int,
    n_segments: int,
    n_audits: int,
    k_rounds: int,
    seed: str = "cache-sim",
) -> float:
    """Measured hit rate of a real LRU under uniform PRF challenges.

    Drives an actual :class:`~repro.storage.cache.LRUCache` with
    ``n_audits`` audits of ``k_rounds`` distinct uniform indices each
    (the verifier's exact drawing discipline), prewarmed to capacity
    first, and returns the cache's measured
    :attr:`~repro.storage.cache.LRUCache.hit_rate`.  The
    cross-validation half of :class:`LRUHitModel`: tests and the CI
    bench assert the closed form tracks this within tolerance.
    """
    if k_rounds <= 0 or k_rounds > n_segments:
        raise ConfigurationError(
            f"k_rounds must be in 1..{n_segments}, got {k_rounds}"
        )
    if n_audits <= 0:
        raise ConfigurationError(
            f"n_audits must be positive, got {n_audits}"
        )
    model = LRUHitModel(
        cache_bytes=cache_bytes,
        entry_bytes=entry_bytes,
        n_segments=n_segments,
    )
    cache = LRUCache(cache_bytes)
    blob = bytes(entry_bytes)
    for index in range(model.cached_entries):
        cache.put(index, blob)
    rng = DeterministicRNG(seed)
    for audit in range(n_audits):
        challenge = rng.fork(f"audit-{audit}").sample_indices(
            n_segments, k_rounds
        )
        for index in challenge:
            if cache.get(index) is None:
                cache.put(index, blob)
    return cache.hit_rate
