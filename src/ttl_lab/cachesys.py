"""Edge cache with TTL expiry, and the range index that finds what a write touches.

The cache maps cacheable units (query ids, or singleton ranges for point
reads) to served result entries. Expiry is half-open: an entry whose
expires_at <= now is already dead at now. Expired entries are reaped lazily at
lookup and via a lazy-deletion heap that also drives capacity eviction (the
live entry with the earliest expiry goes first). Invalidation is asynchronous:
an origin update marks the touched entries pending immediately and the purge
applies after a propagation delay; lookups in that window are stale reads.

The cache keeps no range index: the true-TTL oracle (telemetry.py) resolves a
serve at the first write touching its range, the write that marks its entry,
so a write marks the live entries of the serves it resolves. The oracle's
RangeSet is a grid of fixed-width value buckets: a write's probe visits the
bucket of each of its two values, and adding or dropping a range visits the
buckets it spans (1-3 at every preset).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum

# Bucket width in value units. Record values are uniform on [0, record_count),
# one record per unit at every preset, and a range holds at most result_cap
# (20) records, so it spans 1-3 buckets. Replaying the 100,200 index calls of a
# paper-scale run (w = 0.3, 60 s, about 500 live ranges per index) on a 2-core
# Xeon VM took, in CPU s (median of 11): width 4 0.32, 8 0.25, 16 0.23,
# 32 0.23, 64 0.27; the numpy scan this replaced took 0.65. Narrow buckets
# cost more entries per add, wide ones more ranges per probe.
_WIDTH = 16.0


class RangeSet:
    """Dynamic set of id-tagged half-open intervals on a grid of value buckets.

    Each range is registered in every bucket of width _WIDTH that its [lo, hi)
    overlaps, so a probe visits only the bucket of its value, and an add or
    discard visits the buckets the range spans. Each bucket is a dict in add
    order; a per-range sequence number orders hits from two buckets.
    """

    def __init__(self):
        self._ranges: dict[int, tuple[float, float, int]] = {}  # rid -> (lo, hi, seq)
        self._buckets: dict[float, dict[int, tuple[float, float, int]]] = {}
        self._seq = 0

    def __len__(self) -> int:
        return len(self._ranges)

    def __contains__(self, rid: int) -> bool:
        return rid in self._ranges

    def add(self, rid: int, lo: float, hi: float) -> None:
        if not -math.inf < lo < math.inf:
            raise ValueError(f"range bound lo {lo} is not finite")
        if not -math.inf < hi < math.inf:
            raise ValueError(f"range bound hi {hi} is not finite")
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        if rid in self._ranges:
            raise ValueError(f"range id {rid} already present")
        rec = self._ranges[rid] = (lo, hi, self._seq)
        self._seq += 1
        buckets, first = self._buckets, lo // _WIDTH
        for i in range(int(hi // _WIDTH - first) + 1):
            bucket = buckets.get(first + i)
            if bucket is None:
                bucket = buckets[first + i] = {}
            bucket[rid] = rec

    def discard(self, rid: int) -> bool:
        rec = self._ranges.pop(rid, None)
        if rec is None:
            return False
        buckets, first = self._buckets, rec[0] // _WIDTH
        for i in range(int(rec[1] // _WIDTH - first) + 1):
            del buckets[first + i][rid]
        return True

    def stab(self, value: float) -> list[int]:
        """Ids of live ranges containing value, insertion-ordered."""
        return self._stab((value,))

    def stab_either(self, v1: float, v2: float) -> list[int]:
        """Ids of live ranges containing v1 or v2 (the write-invalidation probe)."""
        return self._stab((v1, v2))

    def _stab(self, values) -> list[int]:
        hits: dict[int, int] = {}  # rid -> seq
        get = self._buckets.get
        for v in values:
            bucket = get(v // _WIDTH)  # every range holding v is in it
            if bucket:
                for rid, (lo, hi, seq) in bucket.items():
                    if lo <= v < hi:
                        hits[rid] = seq
        if len(hits) > 1:
            return sorted(hits, key=hits.__getitem__)
        return list(hits)


class Lookup(Enum):
    HIT = "hit"
    STALE_HIT = "stale_hit"
    MISS = "miss"


@dataclass
class CacheEntry:
    unit: int
    serve_id: int
    expires_at: float
    pending_since: float | None = None


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

    @property
    def live_count(self) -> int:
        return len(self._by_serve)

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
        if entry.pending_since is not None:
            self.stats.stale_reads += 1
            return Lookup.STALE_HIT
        return Lookup.HIT

    def insert(self, unit: int, serve_id: int, ttl: float, now: float) -> CacheEntry:
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
        return entry

    def _evict_earliest(self) -> None:
        while self._expiry:
            expires_at, serve_id = heapq.heappop(self._expiry)
            entry = self._by_serve.get(serve_id)
            if entry is not None:
                self._remove(entry)
                self.stats.evictions += 1
                return
        raise RuntimeError("cache full but expiry heap empty")

    def origin_update(self, serve_ids: list[int], now: float) -> list[CacheEntry]:
        """Mark pending, in the order given, the live entries of the serves a
        write resolves (TrueTtlOracle.on_write, which resolves a serve once);
        serves whose entry expired or was evicted are skipped. The caller
        schedules the delayed purges."""
        self.sweep(now)
        touched = []
        for serve_id in serve_ids:
            entry = self._by_serve.get(serve_id)
            if entry is not None:
                entry.pending_since = now
                touched.append(entry)
        return touched

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
