"""Run-time measurement: windowed counts and the true-TTL oracle.

Estimators read two measurements, both over a sliding window (now - W, now]:
each key's write count and each unit's miss rate. Both come from
WindowCounter: Telemetry holds three, which count writes per key and requests
and misses per unit. A key's write rate is its count / W; a key with no
writes in the window has no rate ("unavailable"), which is distinct from a
rate of zero, and a unit with no requests in it has no miss rate. Each
counter keeps one monotone clock: a `now` earlier than its last raises
ValueError instead of silently under-counting.

The oracle keeps four columns indexed by serve id (unit, serve time, action,
true TTL) and resolves a serve's true TTL at the moment the first
invalidating write is issued, including "shadow" resolutions that land after
the entry's nominal expiry; serves never hit by a write stay censored (NaN)
and are excluded from error metrics. Its RangeSet of unresolved serves is the
run's only range index (see cachesys); a write's probe returns serve ids
ascending, which is serve order.
"""

from __future__ import annotations

import math
from array import array
from collections import deque

import numpy as np


def _unseen(i: int) -> int:
    """The count of an id past the end of the count list: 0, but a negative
    id, which would index the list from its end, raises."""
    if i < 0:
        raise ValueError(f"ids must be >= 0, got {i}")
    return 0


class WindowCounter:
    """Events per id over the sliding window (now - window, now].

    The events still in the window wait in one FIFO of (time, id) in time
    order, and `_counts[id]` is how many of them are id's; the list grows on
    demand, so an id never recorded counts 0, and a negative id raises. Moving
    the clock to `now` pops every event at or before now - window off the front.
    """

    def __init__(self, window: float):
        if not 0.0 < window < math.inf:
            raise ValueError(f"window must be a positive finite number, got {window}")
        self.window = window
        self._fifo: deque[tuple[float, int]] = deque()
        self._counts: list[int] = []
        self._now = -math.inf

    def _advance(self, now: float) -> None:
        if not now >= self._now:
            raise ValueError(f"window clock cannot go back from {self._now} to {now}")
        self._now = now
        cutoff = now - self.window
        fifo, counts = self._fifo, self._counts
        while fifo and fifo[0][0] <= cutoff:
            counts[fifo.popleft()[1]] -= 1

    def record(self, i: int, now: float) -> None:
        self._advance(now)
        counts = self._counts
        if not 0 <= i < len(counts):
            _unseen(i)  # raises on a negative id
            counts.extend([0] * (i + 1 - len(counts)))
        self._fifo.append((now, i))
        counts[i] += 1

    def count(self, i: int, now: float) -> int:
        self._advance(now)
        return self._counts[i] if 0 <= i < len(self._counts) else _unseen(i)

    def counts(self, ids, now: float) -> list[int]:
        """count(i, now) of each i in `ids` (ints or an integer array)."""
        self._advance(now)
        counts = self._counts
        n = len(counts)
        return [counts[i] if 0 <= i < n else _unseen(i) for i in np.asarray(ids, dtype=np.intp).tolist()]


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
    discard visits the buckets the range spans. A probe returns ids ascending.
    """

    def __init__(self):
        self._ranges: dict[int, tuple[float, float]] = {}  # rid -> (lo, hi)
        self._buckets: dict[float, dict[int, tuple[float, float]]] = {}

    def __len__(self) -> int:
        return len(self._ranges)

    def add(self, rid: int, lo: float, hi: float) -> None:
        if not -math.inf < lo < math.inf:
            raise ValueError(f"range bound lo {lo} is not finite")
        if not -math.inf < hi < math.inf:
            raise ValueError(f"range bound hi {hi} is not finite")
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        if rid in self._ranges:
            raise ValueError(f"range id {rid} already present")
        rec = self._ranges[rid] = (lo, hi)
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

    def stab_either(self, v1: float, v2: float) -> list[int]:
        """Ids of live ranges containing v1 or v2 (the write-invalidation
        probe), ascending."""
        hits = set()
        get = self._buckets.get
        for v in (v1, v2):
            bucket = get(v // _WIDTH)  # every range holding v is in it
            if bucket:
                for rid, (lo, hi) in bucket.items():
                    if lo <= v < hi:
                        hits.add(rid)
        return sorted(hits)


class TrueTtlOracle:
    """Ground truth: a serve's true TTL ends at the first write whose old or
    new value lands in the served range. Resolution happens at write issue
    time; propagation delay is a cache artifact, not part of the interval.

    Serves are columns indexed by serve id, which must be dense and in serve
    order: `units`, `served_at`, `actions`, and `true_ttl`, NaN while the
    serve is censored. A resolved serve is a shadow when true_ttl > action.
    The pending ranges live only in the RangeSet.
    """

    def __init__(self):
        self.units = array("q")
        self.served_at = array("d")
        self.actions = array("d")
        self.true_ttl = array("d")
        self._pending = RangeSet()

    def on_serve(self, serve_id: int, unit: int, lo: float, hi: float, now: float, action: float) -> None:
        if serve_id != len(self.units):
            raise ValueError(f"serve id {serve_id} is not the next one, {len(self.units)}")
        self._pending.add(serve_id, lo, hi)  # before the columns: it rejects bad bounds
        self.units.append(unit)
        self.served_at.append(now)
        self.actions.append(action)
        self.true_ttl.append(math.nan)

    def on_write(self, old_value: float, new_value: float, now: float) -> list[int]:
        """Resolve every pending serve the write invalidates, each at most
        once; returns their serve ids, ascending."""
        resolved = self._pending.stab_either(old_value, new_value)
        for serve_id in resolved:
            self._pending.discard(serve_id)
            self.true_ttl[serve_id] = now - self.served_at[serve_id]
        return resolved

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def records(self) -> array:
        """The actions column, one entry per serve; kept only because
        perfbench/tracer.py reads len(oracle.records), until it reads actions."""
        return self.actions

    def resolved_errors(self) -> np.ndarray:
        """action - true_ttl of each resolved serve, in serve order."""
        true_ttl = np.array(self.true_ttl)
        return (np.array(self.actions) - true_ttl)[~np.isnan(true_ttl)]

    def true_ttls(self) -> np.ndarray:
        """The true TTL of each resolved serve, in serve order."""
        true_ttl = np.array(self.true_ttl)
        return true_ttl[~np.isnan(true_ttl)]

    def serves_of_unit(self, unit: int) -> list[int]:
        """The serve ids of one unit, in serve order."""
        return [i for i, u in enumerate(self.units) if u == unit]


class Telemetry:
    """What estimators read: write counts per key, and request and miss counts
    per unit, each over the same window, plus the true-TTL oracle.

    miss_rate_delta reports the change in a unit's miss rate since the last
    value reported for it, then makes that value the baseline; the first
    report for a unit and any empty-window call report 0 (an empty window
    leaves the baseline untouched).
    """

    def __init__(self, window: float):
        self.writes = WindowCounter(window)
        self.requests = WindowCounter(window)
        self.misses = WindowCounter(window)
        self.window = window
        self.oracle = TrueTtlOracle()
        self._last_miss_rate: dict[int, float] = {}

    def record_write(self, key: int, now: float) -> None:
        self.writes.record(key, now)

    def record_request(self, unit: int, now: float, miss: bool) -> None:
        self.requests.record(unit, now)  # first: it rejects an earlier now
        if miss:
            self.misses.record(unit, now)

    def write_counts(self, keys, now: float) -> list[int]:
        """Each key's writes in the window; its rate is count / window, none if 0."""
        return self.writes.counts(keys, now)

    def miss_rate(self, unit: int, now: float) -> float | None:
        """The unit's misses / requests in the window; None if none is in it."""
        n = self.requests.count(unit, now)
        return self.misses.count(unit, now) / n if n else None

    def miss_rate_delta(self, unit: int, now: float) -> float:
        cur = self.miss_rate(unit, now)
        if cur is None:
            return 0.0
        prev = self._last_miss_rate.get(unit)
        self._last_miss_rate[unit] = cur
        return 0.0 if prev is None else cur - prev
