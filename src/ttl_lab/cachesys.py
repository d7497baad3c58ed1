"""Edge cache with TTL expiry plus the origin's index of cached query ranges.

The cache maps cacheable units (query ids, or singleton ranges for point
reads) to served result entries. Expiry is half-open: an entry whose
expires_at <= now is already dead at now. Expired entries are reaped lazily at
lookup and via a lazy-deletion heap that also drives capacity eviction (the
live entry with the earliest expiry goes first). Invalidation is asynchronous:
an origin update marks overlapping entries pending immediately and the purge
applies after a propagation delay; lookups in that window are stale reads.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class RangeSet:
    """Dynamic set of id-tagged half-open intervals with vectorized stabbing.

    Flat parallel arrays with a liveness mask; discards are lazy and the
    arrays compact once dead slots dominate. At the scales this lab runs
    (hundreds to low thousands of live ranges) a masked numpy scan per probe
    beats any tree structure written in Python.
    """

    _INITIAL = 64

    def __init__(self):
        self._lo = np.empty(self._INITIAL)
        self._hi = np.empty(self._INITIAL)
        self._ids = np.empty(self._INITIAL, dtype=np.int64)
        self._alive = np.zeros(self._INITIAL, dtype=bool)
        self._n = 0
        self._dead = 0
        self._slot: dict[int, int] = {}

    def __len__(self) -> int:
        return self._n - self._dead

    def __contains__(self, rid: int) -> bool:
        return rid in self._slot

    def add(self, rid: int, lo: float, hi: float) -> None:
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        if rid in self._slot:
            raise ValueError(f"range id {rid} already present")
        if self._n == len(self._lo):
            self._compact_or_grow()
        i = self._n
        self._lo[i] = lo
        self._hi[i] = hi
        self._ids[i] = rid
        self._alive[i] = True
        self._slot[rid] = i
        self._n += 1

    def discard(self, rid: int) -> bool:
        i = self._slot.pop(rid, None)
        if i is None:
            return False
        self._alive[i] = False
        self._dead += 1
        return True

    def stab(self, value: float) -> list[int]:
        """Ids of live ranges containing value, insertion-ordered."""
        n = self._n
        m = self._alive[:n] & (self._lo[:n] <= value) & (value < self._hi[:n])
        return [int(r) for r in self._ids[:n][m]]

    def stab_either(self, v1: float, v2: float) -> list[int]:
        """Ids of live ranges containing v1 or v2 (the write-invalidation probe)."""
        n = self._n
        lo, hi = self._lo[:n], self._hi[:n]
        m = self._alive[:n] & (
            ((lo <= v1) & (v1 < hi)) | ((lo <= v2) & (v2 < hi))
        )
        return [int(r) for r in self._ids[:n][m]]

    def _compact_or_grow(self) -> None:
        if self._dead * 2 >= self._n:
            keep = self._alive[: self._n]
            self._lo[: keep.sum()] = self._lo[: self._n][keep]
            self._hi[: keep.sum()] = self._hi[: self._n][keep]
            self._ids[: keep.sum()] = self._ids[: self._n][keep]
            self._n = int(keep.sum())
            self._alive[: self._n] = True
            self._alive[self._n :] = False
            self._dead = 0
            self._slot = {int(r): i for i, r in enumerate(self._ids[: self._n])}
        else:
            size = max(self._INITIAL, 2 * len(self._lo))
            for name in ("_lo", "_hi", "_ids", "_alive"):
                old = getattr(self, name)
                new = np.zeros(size, dtype=old.dtype) if old.dtype == bool else np.empty(size, dtype=old.dtype)
                new[: self._n] = old[: self._n]
                setattr(self, name, new)


class Lookup(Enum):
    HIT = "hit"
    STALE_HIT = "stale_hit"
    MISS = "miss"


@dataclass
class CacheEntry:
    unit: int
    serve_id: int
    lo: float
    hi: float
    cached_at: float
    expires_at: float
    pending_since: float | None = None
    alive: bool = True


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
    """Edge cache plus the origin-side index of currently cached ranges."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats()
        self._by_unit: dict[int, CacheEntry] = {}
        self._by_serve: dict[int, CacheEntry] = {}
        self._index = RangeSet()
        self._expiry: list[tuple[float, int]] = []
        self._live = 0

    @property
    def live_count(self) -> int:
        return self._live

    def current_load(self, now: float) -> float:
        self.sweep(now)
        return self._live / self.capacity

    def live_entries(self) -> list[CacheEntry]:
        return [e for e in self._by_unit.values() if e.alive]

    def _remove(self, entry: CacheEntry) -> None:
        entry.alive = False
        if self._by_unit.get(entry.unit) is entry:
            del self._by_unit[entry.unit]
        del self._by_serve[entry.serve_id]
        self._index.discard(entry.serve_id)
        self._live -= 1

    def sweep(self, now: float) -> int:
        """Reap entries whose expiry has passed; returns how many died."""
        reaped = 0
        while self._expiry and self._expiry[0][0] <= now:
            expires_at, serve_id = heapq.heappop(self._expiry)
            entry = self._by_serve.get(serve_id)
            if entry is not None and entry.alive:
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
        if entry.pending_since is not None:
            self.stats.stale_reads += 1
            return Lookup.STALE_HIT
        return Lookup.HIT

    def insert(self, unit: int, serve_id: int, lo: float, hi: float, ttl: float, now: float) -> CacheEntry:
        """Cache a fresh serve. Pre: the unit has no live entry (lookup missed)."""
        if not (0.0 < ttl < math.inf):
            raise ValueError(f"ttl {ttl} is not a positive finite number")
        if serve_id in self._by_serve:
            raise ValueError(f"serve id {serve_id} reused")
        self.sweep(now)
        if unit in self._by_unit:
            raise ValueError(f"unit {unit} already has a live entry")
        if self._live >= self.capacity:
            self._evict_earliest()
        entry = CacheEntry(unit, serve_id, lo, hi, cached_at=now, expires_at=now + ttl)
        self._by_unit[unit] = entry
        self._by_serve[serve_id] = entry
        self._index.add(serve_id, lo, hi)
        heapq.heappush(self._expiry, (entry.expires_at, serve_id))
        self._live += 1
        self.stats.inserts += 1
        return entry

    def _evict_earliest(self) -> None:
        while self._expiry:
            expires_at, serve_id = heapq.heappop(self._expiry)
            entry = self._by_serve.get(serve_id)
            if entry is not None and entry.alive:
                self._remove(entry)
                self.stats.evictions += 1
                return
        raise RuntimeError("cache full but expiry heap empty")

    def origin_update(self, old_value: float, new_value: float, now: float) -> list[CacheEntry]:
        """Mark every cached range touching the old or new value as pending
        invalidation; the caller schedules the delayed purge. Entries already
        pending are not re-marked."""
        self.sweep(now)
        touched = []
        for serve_id in self._index.stab_either(old_value, new_value):
            entry = self._by_serve[serve_id]
            if entry.pending_since is None:
                entry.pending_since = now
                touched.append(entry)
        # A pending entry stays in the index until it expires or the purge
        # lands, so later writes in the window still see it (and skip it).
        return touched

    def apply_invalidation(self, serve_id: int, now: float) -> bool:
        """The delayed purge. No-op if the entry already expired or was evicted."""
        self.sweep(now)
        entry = self._by_serve.get(serve_id)
        if entry is None or not entry.alive:
            return False
        self._remove(entry)
        self.stats.invalidations += 1
        return True

    def check_invariants(self) -> None:
        live = [e for e in self._by_serve.values() if e.alive]
        assert len(live) == self._live <= self.capacity
        assert sorted(e.serve_id for e in live) == sorted(
            e.serve_id for e in self._by_unit.values()
        )
        assert len(self._index) == self._live
