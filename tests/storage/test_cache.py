"""LRU cache behaviour."""

import pytest

from repro.errors import ConfigurationError
from repro.storage.cache import LRUCache


def used_bytes(cache):
    """Bytes held, checked against the running total ``put`` evicts by."""
    held = sum(map(len, cache._entries.values()))
    assert cache._used_bytes == held
    return held


def n_entries(cache):
    return len(cache._entries)


class TestBasicOperations:
    def test_miss_then_hit(self):
        cache = LRUCache(100)
        assert cache.get("k") is None
        cache.put("k", b"value")
        assert cache.get("k") == b"value"
        assert cache.hits == 1
        assert cache.misses == 1

    def test_hit_rate(self):
        cache = LRUCache(100)
        cache.put("k", b"v")
        cache.get("k")
        cache.get("x")
        assert cache.hit_rate == pytest.approx(0.5)

    def test_empty_hit_rate(self):
        assert LRUCache(10).hit_rate == 0.0

    def test_overwrite_updates_bytes(self):
        cache = LRUCache(100)
        cache.put("k", b"12345")
        cache.put("k", b"12")
        assert used_bytes(cache) == 2
        assert n_entries(cache) == 1


class TestAdversarialEdges:
    """The shapes a prefetching adversary would actually hit."""

    def test_entry_larger_than_capacity_not_cached(self):
        cache = LRUCache(4)
        cache.put("big", b"12345")
        assert cache.get("big") is None
        assert n_entries(cache) == 0
        assert used_bytes(cache) == 0

    def test_oversized_entry_does_not_evict_existing(self):
        cache = LRUCache(4)
        cache.put("keep", b"1234")
        cache.put("big", b"12345")  # rejected, must not disturb "keep"
        assert cache.get("keep") == b"1234"
        assert used_bytes(cache) == 4

    def test_oversized_put_evicts_stale_entry(self):
        # Regression pin: putting a value larger than capacity used to
        # return early and leave the key's *previous* value cached, so
        # the next get served stale data.
        cache = LRUCache(4)
        cache.put("k", b"old")
        cache.put("k", b"too-big")  # rejected -- but "old" must go too
        assert cache.get("k") is None
        assert n_entries(cache) == 0
        assert used_bytes(cache) == 0

    def test_oversized_put_at_zero_capacity_evicts_stale_empty(self):
        cache = LRUCache(0)
        cache.put("k", b"")         # the only value a 0-byte budget fits
        cache.put("k", b"x")        # rejected, must not resurrect b""
        assert cache.get("k") is None
        assert n_entries(cache) == 0

    def test_zero_capacity_hit_rate_accounting(self):
        cache = LRUCache(0)
        assert cache.hit_rate == 0.0
        cache.put("k", b"v")        # rejected: nothing cached
        assert cache.get("k") is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.hit_rate == 0.0
        cache.put("empty", b"")
        assert cache.get("empty") == b""
        assert cache.hit_rate == pytest.approx(0.5)

    def test_zero_capacity_clear_resets(self):
        cache = LRUCache(0)
        cache.put("empty", b"")
        cache.get("empty")
        cache.get("ghost")
        cache.clear()
        assert n_entries(cache) == 0
        assert used_bytes(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.hit_rate == 0.0

    def test_exact_capacity_entry_is_cached(self):
        cache = LRUCache(4)
        cache.put("fit", b"1234")
        assert cache.get("fit") == b"1234"
        assert used_bytes(cache) == 4

    def test_zero_capacity_caches_nothing(self):
        cache = LRUCache(0)
        cache.put("k", b"v")
        assert cache.get("k") is None
        assert n_entries(cache) == 0
        # Only the empty value fits a zero-byte budget.
        cache.put("empty", b"")
        assert cache.get("empty") == b""

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            LRUCache(-1)

    def test_eviction_order_under_repeated_get_refreshes(self):
        cache = LRUCache(9)
        cache.put("a", b"111")
        cache.put("b", b"222")
        cache.put("c", b"333")
        # Refresh a twice and c once: eviction order must become b, a.
        cache.get("a")
        cache.get("c")
        cache.get("a")
        cache.put("d", b"444")  # evicts b (least recently used)
        assert cache.get("b") is None
        assert cache.get("a") == b"111"
        cache.put("e", b"555")  # evicts c (a was refreshed again above)
        assert cache.get("c") is None
        assert cache.get("a") == b"111"
        assert cache.get("e") == b"555"

    def test_put_refresh_also_updates_recency(self):
        cache = LRUCache(6)
        cache.put("a", b"111")
        cache.put("b", b"222")
        cache.put("a", b"111")  # re-put refreshes a
        cache.put("c", b"333")  # so b is the LRU victim
        assert cache.get("b") is None
        assert cache.get("a") == b"111"

    def test_hit_rate_accounting_through_eviction(self):
        cache = LRUCache(6)
        cache.put("a", b"111")
        cache.put("b", b"222")
        assert cache.get("a") == b"111"      # hit
        cache.put("c", b"333")               # evicts b
        assert cache.get("b") is None        # miss
        assert cache.get("c") == b"333"      # hit
        assert cache.get("ghost") is None    # miss
        assert cache.hits == 2
        assert cache.misses == 2
        assert cache.hit_rate == pytest.approx(0.5)
        # Rejected oversized puts must not count as lookups.
        cache.put("big", b"1234567")
        assert cache.hits + cache.misses == 4

    def test_clear_resets_accounting(self):
        cache = LRUCache(10)
        cache.put("a", b"1")
        cache.get("a")
        cache.get("x")
        cache.clear()
        assert cache.hit_rate == 0.0
        assert used_bytes(cache) == 0
        assert n_entries(cache) == 0
        assert cache.get("a") is None


class TestEviction:
    def test_lru_order(self):
        cache = LRUCache(10)
        cache.put("a", b"11111")
        cache.put("b", b"22222")
        cache.get("a")  # refresh a
        cache.put("c", b"33333")  # evicts b (LRU)
        assert cache.get("a") == b"11111"
        assert cache.get("b") is None
        assert cache.get("c") == b"33333"

    def test_capacity_respected(self):
        cache = LRUCache(10)
        for i in range(10):
            cache.put(i, bytes(3))
        assert used_bytes(cache) <= 10

    def test_oversize_object_not_cached(self):
        cache = LRUCache(4)
        cache.put("big", b"12345")
        assert cache.get("big") is None
        assert used_bytes(cache) == 0

    def test_zero_capacity(self):
        cache = LRUCache(0)
        cache.put("k", b"")
        assert used_bytes(cache) == 0

    def test_rejects_negative_capacity(self):
        with pytest.raises(ConfigurationError):
            LRUCache(-1)


class TestClear:
    def test_clear_resets_everything(self):
        cache = LRUCache(100)
        cache.put("k", b"v")
        cache.get("k")
        cache.get("x")
        cache.clear()
        assert n_entries(cache) == 0
        assert used_bytes(cache) == 0
        assert cache.hits == 0
        assert cache.misses == 0
