"""Epoch-keyed LRU cache of top-k results for the serving layer.

Top-k serving traffic is heavily repetitive — the same handful of weight
vectors (a UI's preference presets, a dashboard's fixed panels) arrive
over and over between index mutations.  Those answers are pure functions
of ``(snapshot epoch, weight vector, k)``, which makes caching trivially
safe: the epoch is part of the key, so a writer publish — which bumps
the epoch — orphans every cached entry at once without any invalidation
protocol.  :meth:`ResultCache.purge_other_epochs` then reclaims the
orphans' memory on the next publish.

Only unfiltered, unbudgeted linear queries are cached
(:func:`cache_key` returns ``None`` otherwise): a ``where`` predicate is
an opaque callable with no stable identity, and budgeted queries must
re-run to re-enforce their budgets.  Hit/miss/eviction counters are
surfaced through :meth:`ResultCache.stats` into
:meth:`~repro.serve.index.ServingIndex.health`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

from repro.core.functions import LinearFunction, ScoringFunction
from repro.core.result import TopKResult

#: Cache key: ``(epoch, weight bytes, k)``.
CacheKey = Tuple[int, bytes, int]


def cache_key(
    function: ScoringFunction, k: int, epoch: int
) -> "Optional[CacheKey]":
    """Key for a cacheable query, or ``None`` when it must not be cached.

    Only :class:`~repro.core.functions.LinearFunction` queries have a
    stable, hashable identity (the exact float64 weight bytes); general
    monotone callables do not, so they bypass the cache.
    """
    if isinstance(function, LinearFunction):
        return (int(epoch), function.weights.tobytes(), int(k))
    return None


class ResultCache:
    """Thread-safe LRU of :class:`~repro.core.result.TopKResult` values.

    ``capacity`` bounds the entry count; least-recently-*used* entries
    are evicted (a hit refreshes recency).  All operations take one
    internal lock — the cached values themselves are immutable.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[CacheKey, TopKResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._purged = 0

    def get(self, key: "Optional[CacheKey]") -> "Optional[TopKResult]":
        """Look up a cached result, counting the hit or the miss.

        An uncacheable request (``key is None``) is neither: it returns
        ``None`` uncounted, so the hits and misses ``health()`` reports —
        and any hit ratio built on them — cover cacheable lookups only.
        """
        if key is None:
            return None
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return result

    def put(self, key: "Optional[CacheKey]", result: TopKResult) -> None:
        """Insert a result, evicting the least recently used past capacity."""
        if key is None:
            return
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def purge_other_epochs(self, epoch: int) -> int:
        """Drop every entry not keyed to ``epoch``; returns the count.

        Called by the writer after each publish: entries from older
        epochs can never hit again (the epoch is in the key), so this
        only reclaims memory early — correctness never depends on it.
        """
        with self._lock:
            stale = [key for key in self._entries if key[0] != epoch]
            for key in stale:
                del self._entries[key]
            self._purged += len(stale)
            return len(stale)

    def clear(self) -> None:
        """Drop everything (counters survive)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> "dict[str, int]":
        """Hit/miss/eviction/purge counters plus current size."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "purged": self._purged,
            }
