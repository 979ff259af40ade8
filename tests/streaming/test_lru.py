"""LRU cache semantics: bounding, eviction order, counters."""

from __future__ import annotations

import pytest

from repro import obs
from repro.streaming.lru import LRUCache


class TestBounding:
    def test_never_exceeds_maxsize(self):
        cache = LRUCache(3)
        for key in range(10):
            cache.put(key, key * 2)
        assert len(cache) == 3

    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert "a" not in cache
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "b" is now LRU
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache

    def test_put_refreshes_recency_and_overwrites(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh + overwrite, no eviction
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache
        assert cache.evictions == 1

    def test_maxsize_zero_disables_caching(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.misses == 1

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError, match="maxsize"):
            LRUCache(-1)


class TestCounters:
    def test_hit_rate(self):
        cache = LRUCache(4)
        assert cache.hit_rate == 0.0
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        assert cache.hits == 2
        assert cache.misses == 1
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_get_if_counts_unusable_entries_as_misses(self):
        cache = LRUCache(4)
        cache.put("a", 3)
        assert cache.get_if("a", lambda v: v >= 5) is None
        assert cache.get_if("a", lambda v: v >= 2) == 3
        assert (cache.hits, cache.misses) == (1, 1)

    def test_clear_drops_entries_but_keeps_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_obs_counters_published_under_prefix(self):
        with obs.observe() as session:
            cache = LRUCache(1, metric_prefix="test.cache")
            cache.put("a", 1)
            cache.get("a")
            cache.get("b")
            cache.put("b", 2)  # evicts "a"
        counters = session.registry.snapshot()["counters"]
        assert counters["test.cache.hits"] == 1
        assert counters["test.cache.misses"] == 1
        assert counters["test.cache.evictions"] == 1


class TestInvalidation:
    def test_keys_in_lru_order(self):
        cache = LRUCache(3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        cache.get("a")
        assert list(cache.keys()) == ["b", "c", "a"]
