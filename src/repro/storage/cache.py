"""A byte-budgeted LRU cache.

The relaying adversary's front cache
(:class:`~repro.cloud.adversary.PrefetchRelayAttack`): a hit is served
from RAM at the front site and skips both the relay flight and the
remote disk.  The verifier draws challenge indices uniformly, so the hit
rate is bounded by (cache size / file size); the economics model's
closed-form hit rates are checked against this cache
(:func:`~repro.economics.cache_model.simulate_hit_rate`).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ConfigurationError


class LRUCache:
    """Least-recently-used cache with a byte capacity."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ConfigurationError(
                f"capacity must be >= 0, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[object, bytes] = OrderedDict()
        self._used_bytes = 0
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key: object) -> bytes | None:
        """Look up a key, refreshing its recency."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: object, value: bytes) -> None:
        """Insert/refresh an entry, evicting LRU entries to fit.

        Objects larger than the whole capacity are simply not cached --
        but the key's *previous* entry is still evicted, so a rejected
        put can never leave stale data to be served by the next ``get``.
        """
        old = self._entries.pop(key, None)
        if old is not None:
            self._used_bytes -= len(old)
        if len(value) > self.capacity_bytes:
            return
        while self._used_bytes + len(value) > self.capacity_bytes and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self._used_bytes -= len(evicted)
        self._entries[key] = value
        self._used_bytes += len(value)

    def clear(self) -> None:
        """Drop all entries and reset statistics."""
        self._entries.clear()
        self._used_bytes = 0
        self.hits = 0
        self.misses = 0
