"""Versioned LRU result cache in front of the shard indexes.

Entries are keyed by ``(var, step, query-shape)`` and stamped with the
step's *build version* at fill time.  The version advances whenever the
step's data changes — every chunk landing on an in-flight step and the
final commit — so a fresh lookup (``allow_stale=False``) only ever hits
a result computed from the current data.  Under admission pressure the
service may instead ask for a *stale-but-bounded* read: an entry at
most ``stale_bound`` versions behind still counts, trading freshness
for latency.

A step **commit** additionally hard-invalidates every entry of that
``(var, step)``: partial in-flight answers must never survive into the
committed era, not even as degraded stale reads.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Hashable, Optional

__all__ = ["CacheStats", "QueryCache"]


@dataclass
class CacheStats:
    """Always-on counters of one :class:`QueryCache`."""

    hits: int = 0
    stale_hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (fresh or stale)."""
        total = self.hits + self.stale_hits + self.misses
        return (self.hits + self.stale_hits) / total if total else 0.0


@dataclass
class _Entry:
    value: Any
    version: int = field(default=0)


class QueryCache:
    """LRU cache of query results keyed by ``(var, step, shape)``."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple[Hashable, ...], _Entry]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key(var: str, step: int, shape: Hashable) -> tuple[Hashable, ...]:
        """Canonical cache key for a query *shape* against (var, step)."""
        return (var, step, shape)

    def get(
        self,
        key: tuple[Hashable, ...],
        version: int,
        *,
        allow_stale: bool = False,
        stale_bound: int = 0,
    ) -> Optional[Any]:
        """Look up *key* against the step's current build *version*.

        A fresh lookup hits only when the entry was built at exactly
        *version*.  With ``allow_stale`` the entry may lag by up to
        ``stale_bound`` versions.  Anything older is a miss (and is
        dropped, since it can never become fresh again).
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        lag = version - entry.version
        if lag == 0:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.value
        if allow_stale and 0 < lag <= stale_bound:
            self._entries.move_to_end(key)
            self.stats.stale_hits += 1
            return entry.value
        if lag > 0:
            # superseded for good — keep the slot for live data
            del self._entries[key]
        self.stats.misses += 1
        return None

    def put(self, key: tuple[Hashable, ...], value: Any, version: int) -> None:
        """Fill *key* with *value* computed at build *version*."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = _Entry(value, version)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(self, var: str, step: int) -> int:
        """Hard-remove every entry of ``(var, step)``; returns the count.

        Called at step commit: results computed against partial
        in-flight data must not be served afterwards, stale-bounded or
        not.
        """
        doomed = [k for k in self._entries if k[0] == var and k[1] == step]
        for k in doomed:
            del self._entries[k]
        self.stats.invalidations += len(doomed)
        return len(doomed)
