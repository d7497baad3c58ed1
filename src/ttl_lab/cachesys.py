"""Edge cache with TTL expiry and asynchronous invalidation.

The cache maps cacheable units (range queries and point reads, in one id
space) to served result entries. Expiry is half-open: an entry whose
expires_at <= now is already dead at now. Expired entries are reaped lazily at
lookup and via a lazy-deletion heap that also drives capacity eviction (the
live entry with the earliest expiry goes first). Invalidation is asynchronous:
an origin update marks the touched entries pending immediately and the purge
applies after a propagation delay; lookups in that window are stale reads.

The cache keeps one index, its live entries by unit. A write marks the live,
unmarked entry of each unit it touches (the queries workload.QueryIndex finds
and the read of the written record): the entry of the serve the true-TTL
oracle (telemetry.py) resolves at that write, as an earlier write touching
the unit would have marked it. A purge holds its entry and removes it only
while it is still its unit's live entry.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum


class Lookup(Enum):
    HIT = "hit"
    STALE_HIT = "stale_hit"
    MISS = "miss"


@dataclass
class CacheEntry:
    unit: int
    serve_id: int
    expires_at: float
    pending: bool = False  # marked by a write, purged after the propagation delay


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stale_reads: int = 0
    inserts: int = 0
    invalidations: int = 0
    evictions: int = 0
    expirations: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def invalidation_rate(self) -> float:
        return self.invalidations / self.inserts if self.inserts else 0.0


class CacheSystem:
    """Edge cache: the live entries by unit, and a lazy expiry heap of
    (expires_at, serve_id, entry), whose records of dead entries are skipped."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats()
        self._by_unit: dict[int, CacheEntry] = {}
        self._expiry: list[tuple[float, int, CacheEntry]] = []

    def current_load(self, now: float) -> float:
        self.sweep(now)
        return len(self._by_unit) / self.capacity

    def live_entries(self) -> list[CacheEntry]:
        return list(self._by_unit.values())

    def sweep(self, now: float) -> int:
        """Reap entries whose expiry has passed; returns how many died."""
        reaped = 0
        while self._expiry and self._expiry[0][0] <= now:
            entry = heapq.heappop(self._expiry)[2]
            if self._by_unit.get(entry.unit) is entry:
                del self._by_unit[entry.unit]
                self.stats.expirations += 1
                reaped += 1
        return reaped

    def lookup(self, unit: int, now: float) -> Lookup:
        entry = self._by_unit.get(unit)
        if entry is not None and entry.expires_at <= now:
            del self._by_unit[unit]
            self.stats.expirations += 1
            entry = None
        if entry is None:
            self.stats.misses += 1
            return Lookup.MISS
        self.stats.hits += 1
        if entry.pending:
            self.stats.stale_reads += 1
            return Lookup.STALE_HIT
        return Lookup.HIT

    def insert(self, unit: int, serve_id: int, ttl: float, now: float) -> None:
        """Cache a fresh serve. Pre: the unit has no live entry (lookup missed)."""
        if not (0.0 < ttl < math.inf):
            raise ValueError(f"ttl {ttl} is not a positive finite number")
        self.sweep(now)
        if unit in self._by_unit:
            raise ValueError(f"unit {unit} already has a live entry")
        if len(self._by_unit) >= self.capacity:
            self._evict_earliest()
        entry = CacheEntry(unit, serve_id, expires_at=now + ttl)
        self._by_unit[unit] = entry
        heapq.heappush(self._expiry, (entry.expires_at, serve_id, entry))
        self.stats.inserts += 1

    def _evict_earliest(self) -> None:
        while self._expiry:
            entry = heapq.heappop(self._expiry)[2]
            if self._by_unit.get(entry.unit) is entry:
                del self._by_unit[entry.unit]
                self.stats.evictions += 1
                return
        raise RuntimeError("cache full but expiry heap empty")

    def origin_update(self, units: list[int], now: float) -> list[CacheEntry]:
        """Mark pending, in the order given, the live, unmarked entry of each
        unit a write touches, and return those entries. A unit with no live
        entry, or one already marked, is skipped. The caller schedules the
        delayed purges."""
        self.sweep(now)
        marked = []
        for unit in units:
            entry = self._by_unit.get(unit)
            if entry is not None and not entry.pending:
                entry.pending = True
                marked.append(entry)
        return marked

    def apply_invalidation(self, entry: CacheEntry, now: float) -> bool:
        """The delayed purge of a marked entry. No-op if the entry already
        expired or was evicted, whether or not its unit was cached again."""
        self.sweep(now)
        if self._by_unit.get(entry.unit) is not entry:
            return False
        del self._by_unit[entry.unit]
        self.stats.invalidations += 1
        return True

    def check_invariants(self) -> None:
        assert len(self._by_unit) <= self.capacity
        for unit, entry in self._by_unit.items():
            assert entry.unit == unit
