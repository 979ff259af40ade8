"""Bounded least-recently-used cache with :mod:`repro.obs` counters.

The serving layer keeps several per-user caches (top-k slates, score
rows).  An unbounded dict is a memory leak under million-user traffic —
one entry per unique visitor, never evicted — so every cache in the
serving path goes through this class: a hard ``maxsize`` bound, LRU
eviction, and hit/miss/eviction counters published under a caller-chosen
metric prefix (``<prefix>.hits`` / ``.misses`` / ``.evictions``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Iterator

from repro.obs.metrics import counter_add

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """A dict bounded to ``maxsize`` entries with LRU eviction.

    ``maxsize=0`` disables caching entirely (every ``get`` misses, every
    ``put`` is dropped) — used by benchmarks to time the uncached path
    through otherwise identical code.

    Parameters
    ----------
    maxsize:
        Hard bound on entry count; least-recently-*used* entries are
        evicted first (both ``get`` hits and ``put`` updates refresh
        recency).
    metric_prefix:
        Optional :mod:`repro.obs` counter prefix.  When set, hits,
        misses and evictions are counted on the installed registry
        (no-ops when observability is off).
    """

    def __init__(self, maxsize: int, metric_prefix: str | None = None) -> None:
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = int(maxsize)
        self.metric_prefix = metric_prefix
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (refreshing recency) or ``default``."""
        return self.get_if(key, None, default)

    def get_if(self, key: Hashable, predicate, default: Any = None) -> Any:
        """Like :meth:`get`, but a present entry only *hits* when
        ``predicate(value)`` holds — a present-but-unusable entry (e.g. a
        cached slate shorter than the requested k) counts as a miss."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING or (predicate is not None and not predicate(value)):
            self.misses += 1
            if self.metric_prefix:
                counter_add(f"{self.metric_prefix}.misses", 1)
            return default
        self._data.move_to_end(key)
        self.hits += 1
        if self.metric_prefix:
            counter_add(f"{self.metric_prefix}.hits", 1)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/overwrite ``key``, evicting the LRU entry when full."""
        if self.maxsize == 0:
            return
        if key in self._data:
            self._data.move_to_end(key)
            self._data[key] = value
            return
        if len(self._data) >= self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1
            if self.metric_prefix:
                counter_add(f"{self.metric_prefix}.evictions", 1)
        self._data[key] = value

    def clear(self) -> None:
        self._data.clear()

    @property
    def hit_rate(self) -> float:
        """hits / (hits + misses); 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def keys(self) -> Iterator[Hashable]:
        """Keys from least- to most-recently used (no recency update)."""
        return iter(self._data.keys())

    def __repr__(self) -> str:
        return (
            f"LRUCache(size={len(self._data)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
