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
and are excluded from error metrics. Its unresolved serves wait under what
they served: a range query's serves under its query id, a point read's under
the value it read. A write resolves the serves of the queries it touches,
which the world's QueryIndex finds, and of the reads of its old or new value,
and returns their ids ascending, which is serve order (see cachesys).
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
        return [counts[i] if 0 <= i < n else _unseen(i) for i in ids]


class TrueTtlOracle:
    """Ground truth: a serve's true TTL ends at the first write whose old or
    new value lands in the served range. Resolution happens at write issue
    time; propagation delay is a cache artifact, not part of the interval.

    Serves are columns indexed by serve id, which must be dense and in serve
    order: `units`, `served_at`, `actions`, and `true_ttl`, NaN while the
    serve is censored. A resolved serve is a shadow when true_ttl > action.
    The pending serve ids wait in lists, by query id or by read value. A
    read's range [v, nextafter(v)) holds x only when x == v, so the read
    serves a write resolves are those filed under its old or new value.
    """

    def __init__(self):
        self.units = array("q")
        self.served_at = array("d")
        self.actions = array("d")
        self.true_ttl = array("d")
        self._by_query: dict[int, list[int]] = {}
        self._by_value: dict[float, list[int]] = {}

    def on_serve(
        self,
        serve_id: int,
        unit: int,
        now: float,
        action: float,
        query: int | None = None,
        value: float | None = None,
    ) -> None:
        """Record a serve of range query `query` or of a point read of `value`
        (exactly one of them)."""
        if serve_id != len(self.units):
            raise ValueError(f"serve id {serve_id} is not the next one, {len(self.units)}")
        if (query is None) == (value is None):
            raise ValueError(f"a serve is of a query or of a read value, got {query=} and {value=}")
        if query is not None:
            pending, at = self._by_query, query
        elif not -math.inf < value < math.inf:
            raise ValueError(f"read value {value} is not finite")
        else:
            pending, at = self._by_value, value
        serves = pending.get(at)
        if serves is None:
            pending[at] = [serve_id]
        else:
            serves.append(serve_id)
        self.units.append(unit)
        self.served_at.append(now)
        self.actions.append(action)
        self.true_ttl.append(math.nan)

    def on_write(self, queries: list[int], old_value: float, new_value: float, now: float) -> list[int]:
        """Resolve every pending serve of the `queries` the write touches (as
        QueryIndex.move returns them) and of a read of its old or new value,
        each at most once; returns their serve ids, ascending."""
        resolved: list[int] = []
        pop = self._by_query.pop
        for q in queries:
            serves = pop(q, None)
            if serves is not None:
                resolved += serves
        if self._by_value:
            pop = self._by_value.pop
            for v in (old_value, new_value):
                serves = pop(v, None)
                if serves is not None:
                    resolved += serves
        resolved.sort()
        true_ttl, served_at = self.true_ttl, self.served_at
        for serve_id in resolved:
            true_ttl[serve_id] = now - served_at[serve_id]
        return resolved

    @property
    def pending_count(self) -> int:
        return sum(map(len, self._by_query.values())) + sum(map(len, self._by_value.values()))

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
