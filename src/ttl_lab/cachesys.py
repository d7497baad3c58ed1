"""Edge cache with TTL expiry and asynchronous invalidation.

The cache maps cacheable units (query ids, or singleton ranges for point
reads) to served result entries. Expiry is half-open: an entry whose
expires_at <= now is already dead at now. Expired entries are reaped lazily at
lookup and via a lazy-deletion heap that also drives capacity eviction (the
live entry with the earliest expiry goes first). Invalidation is asynchronous:
an origin update marks the touched entries pending immediately and the purge
applies after a propagation delay; lookups in that window are stale reads.

The cache keeps no range index: the true-TTL oracle (telemetry.py) resolves a
serve at the first write touching its range, the write that marks its entry,
so a write marks the live entries of the serves the oracle's range index
returns. The cache speaks serve ids: origin_update takes the resolved ids and
returns those it marked.
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
    """Edge cache: the live entries by unit and by serve id, and a lazy expiry heap."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats()
        self._by_unit: dict[int, CacheEntry] = {}
        self._by_serve: dict[int, CacheEntry] = {}
        self._expiry: list[tuple[float, int]] = []

    def current_load(self, now: float) -> float:
        self.sweep(now)
        return len(self._by_serve) / self.capacity

    def live_entries(self) -> list[CacheEntry]:
        return list(self._by_unit.values())

    def _remove(self, entry: CacheEntry) -> None:
        del self._by_unit[entry.unit]
        del self._by_serve[entry.serve_id]

    def sweep(self, now: float) -> int:
        """Reap entries whose expiry has passed; returns how many died."""
        reaped = 0
        while self._expiry and self._expiry[0][0] <= now:
            expires_at, serve_id = heapq.heappop(self._expiry)
            entry = self._by_serve.get(serve_id)
            if entry is not None:
                self._remove(entry)
                self.stats.expirations += 1
                reaped += 1
        return reaped

    def lookup(self, unit: int, now: float) -> Lookup:
        entry = self._by_unit.get(unit)
        if entry is not None and entry.expires_at <= now:
            self._remove(entry)
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
        if serve_id in self._by_serve:
            raise ValueError(f"serve id {serve_id} reused")
        self.sweep(now)
        if unit in self._by_unit:
            raise ValueError(f"unit {unit} already has a live entry")
        if len(self._by_serve) >= self.capacity:
            self._evict_earliest()
        entry = CacheEntry(unit, serve_id, expires_at=now + ttl)
        self._by_unit[unit] = entry
        self._by_serve[serve_id] = entry
        heapq.heappush(self._expiry, (entry.expires_at, serve_id))
        self.stats.inserts += 1

    def _evict_earliest(self) -> None:
        while self._expiry:
            expires_at, serve_id = heapq.heappop(self._expiry)
            entry = self._by_serve.get(serve_id)
            if entry is not None:
                self._remove(entry)
                self.stats.evictions += 1
                return
        raise RuntimeError("cache full but expiry heap empty")

    def origin_update(self, serve_ids: list[int], now: float) -> list[int]:
        """Mark pending, in the order given, the live entries of the serves a
        write resolves (TrueTtlOracle.on_write, which resolves a serve once);
        returns the ids marked, skipping serves whose entry expired or was
        evicted. The caller schedules the delayed purges."""
        self.sweep(now)
        marked = []
        for serve_id in serve_ids:
            entry = self._by_serve.get(serve_id)
            if entry is not None:
                entry.pending = True
                marked.append(serve_id)
        return marked

    def apply_invalidation(self, serve_id: int, now: float) -> bool:
        """The delayed purge. No-op if the entry already expired or was evicted."""
        self.sweep(now)
        entry = self._by_serve.get(serve_id)
        if entry is None:
            return False
        self._remove(entry)
        self.stats.invalidations += 1
        return True

    def check_invariants(self) -> None:
        assert len(self._by_serve) == len(self._by_unit) <= self.capacity
        for serve_id, entry in self._by_serve.items():
            assert entry.serve_id == serve_id and self._by_unit[entry.unit] is entry
