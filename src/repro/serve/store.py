"""The sharded two-level verdict store behind the service.

Level 1 is a bounded in-memory LRU keyed by the same content address the
on-disk cache uses; level 2 is the existing content-addressed
:class:`~repro.litmus.cache.ResultCache` (optional — a service can run
memory-only).  Reads probe memory first, then disk, promoting disk hits
into memory; writes go to both levels.

The LRU is sharded: the key's leading hex bytes pick a shard, each shard
holds its own ``OrderedDict`` and lock, so concurrent readers on
different shards never contend on one global lock.  Capacity is divided
across shards; eviction is per-shard and *cost-aware*: a full shard
scans a small window of its coldest entries and drops the one that was
cheapest to compute, so expensive verdicts (certified runs, rf-check
fallbacks) survive longer than cheap ones of the same age.  The window
is a constant (:data:`_EVICTION_SCAN`), which bounds total residency at
``capacity`` entries while keeping eviction O(1).

Counters tell the operator where traffic lands: ``mem_hits`` /
``disk_hits`` / ``misses`` / ``evictions`` / ``stores``; the service's
``/v1/stats`` endpoint surfaces them as JSON.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..litmus.cache import ResultCache
from ..schema import assert_schema

# entries in memory must be interchangeable with entries on disk: both
# carry the same schema-versioned payloads
assert_schema("repro.serve.store", cache=10)


@dataclass
class StoreStats:
    """Where verdict reads were served from (and write/eviction traffic)."""

    mem_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "mem_hits": self.mem_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }

    def format(self) -> str:
        return (
            f"mem_hits={self.mem_hits} disk_hits={self.disk_hits} "
            f"misses={self.misses} stores={self.stores} "
            f"evictions={self.evictions}"
        )


#: how many of a shard's coldest entries compete for eviction: the
#: cheapest of the window goes first, so an expensive verdict is only
#: dropped once it has aged past ``_EVICTION_SCAN`` cheaper entries
_EVICTION_SCAN = 8


class _Shard:
    """One LRU shard: an ordered dict + lock, most-recent at the end.

    Entries are stored as ``(value, cost)`` pairs; eviction picks the
    minimum-cost entry among the :data:`_EVICTION_SCAN` least recently
    used (ties resolve to the older entry, i.e. plain LRU).
    """

    __slots__ = ("capacity", "entries", "lock")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: "OrderedDict[str, tuple]" = OrderedDict()
        self.lock = threading.Lock()

    def get(self, key: str):
        with self.lock:
            try:
                value, _cost = self.entries[key]
            except KeyError:
                return None
            self.entries.move_to_end(key)
            return value

    def put(self, key: str, value, cost: float = 0.0) -> int:
        """Insert/refresh ``key``; returns the number of evictions (0/1)."""
        evicted = 0
        with self.lock:
            self.entries[key] = (value, cost)
            self.entries.move_to_end(key)
            while len(self.entries) > self.capacity:
                victim = min(
                    itertools.islice(
                        self.entries.items(), _EVICTION_SCAN
                    ),
                    key=lambda item: item[1][1],
                )[0]
                del self.entries[victim]
                evicted += 1
        return evicted

    def __len__(self) -> int:
        with self.lock:
            return len(self.entries)


def _result_cost(result) -> float:
    """Eviction weight of a stored result: its recorded compute time."""
    return getattr(result, "elapsed", None) or 0.0


class VerdictStore:
    """Bounded sharded LRU in front of the (optional) on-disk cache.

    ``capacity`` bounds the total in-memory entry count; ``shards`` is
    rounded so every shard holds at least one entry.  ``disk`` is a
    :class:`~repro.litmus.cache.ResultCache` or ``None`` (memory-only).
    """

    def __init__(
        self,
        capacity: int = 4096,
        shards: int = 8,
        disk: Optional[ResultCache] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        shards = min(shards, capacity)
        base, extra = divmod(capacity, shards)
        self._shards: List[_Shard] = [
            _Shard(base + (1 if index < extra else 0))
            for index in range(shards)
        ]
        self.capacity = capacity
        self.disk = disk
        self.stats = StoreStats()
        self._stats_lock = threading.Lock()

    def _shard_for(self, key: str) -> _Shard:
        return self._shards[int(key[:4], 16) % len(self._shards)]

    def get(self, key: str, test):
        """The cached result for ``key`` (memory, then disk), or None.

        ``test`` re-attaches the (not re-stored) test object when a disk
        entry is deserialized — same contract as ``ResultCache.get``.
        """
        result = self._shard_for(key).get(key)
        if result is not None:
            with self._stats_lock:
                self.stats.mem_hits += 1
            return result
        if self.disk is not None:
            result = self.disk.get(key, test)
            if result is not None:
                with self._stats_lock:
                    self.stats.disk_hits += 1
                # promote: the disk hit is now hot
                evicted = self._shard_for(key).put(
                    key, result, cost=_result_cost(result)
                )
                if evicted:
                    with self._stats_lock:
                        self.stats.evictions += evicted
                return result
        with self._stats_lock:
            self.stats.misses += 1
        return None

    def put(self, key: str, result) -> None:
        """Store a completed result in both levels."""
        evicted = self._shard_for(key).put(
            key, result, cost=_result_cost(result)
        )
        with self._stats_lock:
            self.stats.stores += 1
            self.stats.evictions += evicted
        if self.disk is not None:
            self.disk.put(key, result)

    def __len__(self) -> int:
        """In-memory entry count (never exceeds ``capacity``)."""
        return sum(len(shard) for shard in self._shards)

    def as_dict(self) -> Dict:
        """Stats + shape for the ``/v1/stats`` endpoint."""
        payload = {
            "capacity": self.capacity,
            "entries": len(self),
            "shards": len(self._shards),
            **self.stats.as_dict(),
        }
        if self.disk is not None:
            payload["disk"] = {
                "directory": str(self.disk.directory),
                "hits": self.disk.stats.hits,
                "misses": self.disk.stats.misses,
                "stores": self.disk.stats.stores,
            }
        return payload
