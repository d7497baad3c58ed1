"""Run-time measurement: write counts, miss rates, and the true-TTL oracle.

Both are taken over a sliding window (now - W, now]. A key's write rate is its
count / W; a key with no writes in the window has no rate ("unavailable"),
which is distinct from a rate of zero, and a unit with no requests in it has
no miss rate. Write counts come from one FIFO of (time, key) over the window
and one integer count per key, so the counts of a whole result set are one
array lookup; recording and querying share the tracker's clock, and a `now`
earlier than the last one raises ValueError instead of silently under-counting.
The oracle keeps four columns indexed by serve id (unit, serve time, action,
true TTL) and resolves a serve's true TTL at the moment the first
invalidating write is issued, including "shadow" resolutions that land after
the entry's nominal expiry; serves never hit by a write stay censored (NaN)
and are excluded from error metrics. Its RangeSet of unresolved serves is the
run's only range index (see cachesys).
"""

from __future__ import annotations

import math
from array import array
from collections import deque

import numpy as np

from .cachesys import RangeSet


def _check_window(window: float) -> None:
    if not 0.0 < window < math.inf:
        raise ValueError(f"window must be a positive finite number, got {window}")


class WriteRateTracker:
    """Write counts per key over a sliding window.

    The writes still in the window wait in one FIFO of (time, key) in time
    order, and `_counts[key]` is how many of them are key's. Moving the clock
    to `now` pops every write at or before now - window off the front.
    """

    def __init__(self, window: float):
        _check_window(window)
        self.window = window
        self._fifo: deque[tuple[float, int]] = deque()
        self._counts = np.zeros(0, dtype=np.int64)
        self._now = -math.inf

    def _advance(self, now: float) -> None:
        if not now >= self._now:
            raise ValueError(f"write tracker clock cannot go back from {self._now} to {now}")
        self._now = now
        cutoff = now - self.window
        fifo, counts = self._fifo, self._counts
        while fifo and fifo[0][0] <= cutoff:
            counts[fifo.popleft()[1]] -= 1

    def _grow(self, size: int) -> None:
        grown = np.zeros(max(size, 2 * len(self._counts)), dtype=np.int64)
        grown[: len(self._counts)] = self._counts
        self._counts = grown

    def record(self, key: int, now: float) -> None:
        self._advance(now)
        if key >= len(self._counts):
            self._grow(key + 1)
        self._fifo.append((now, key))
        self._counts[key] += 1

    def counts(self, keys, now: float) -> np.ndarray:
        """Writes in (now - window, now] of each key in `keys`, as int64."""
        self._advance(now)
        keys = np.asarray(keys, dtype=np.intp)
        try:
            return self._counts[keys]
        except IndexError:  # a key above every key written so far: it counts 0
            self._grow(int(keys.max()) + 1)
            return self._counts[keys]


class MissRateTracker:
    """Per-unit request outcomes in a sliding window, plus the stateful delta.

    miss_rate_delta reports the change since the last reported value for the
    unit and then updates that baseline; the first observation for a unit and
    any empty-window call report 0 (an empty window leaves the baseline
    untouched).
    """

    def __init__(self, window: float):
        _check_window(window)
        self.window = window
        self._events: dict[int, deque[tuple[float, int]]] = {}
        self._miss_in_window: dict[int, int] = {}
        self._last_reported: dict[int, float] = {}

    def record(self, unit: int, now: float, miss: bool) -> None:
        dq = self._events.get(unit)
        if dq is None:
            dq = self._events[unit] = deque()
        dq.append((now, 1 if miss else 0))
        if miss:
            self._miss_in_window[unit] = self._miss_in_window.get(unit, 0) + 1
        self._prune(unit, dq, now)

    def _prune(self, unit: int, dq: deque[tuple[float, int]], now: float) -> None:
        cutoff = now - self.window
        dropped_miss = 0
        while dq and dq[0][0] <= cutoff:
            dropped_miss += dq.popleft()[1]
        if dropped_miss:
            self._miss_in_window[unit] -= dropped_miss

    def miss_rate(self, unit: int, now: float) -> float | None:
        dq = self._events.get(unit)
        if dq is None:
            return None
        self._prune(unit, dq, now)
        if not dq:
            return None
        return self._miss_in_window.get(unit, 0) / len(dq)

    def miss_rate_delta(self, unit: int, now: float) -> float:
        cur = self.miss_rate(unit, now)
        if cur is None:
            return 0.0
        prev = self._last_reported.get(unit)
        self._last_reported[unit] = cur
        if prev is None:
            return 0.0
        return cur - prev


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
        once; returns their serve ids."""
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
        """The actions column, one entry per serve; perfbench/tracer.py reads
        len(oracle.records)."""
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
    """Facade bundling the trackers and oracle that estimators read."""

    def __init__(self, window: float):
        self.window = window
        self.writes = WriteRateTracker(window)
        self.requests = MissRateTracker(window)
        self.oracle = TrueTtlOracle()

    def record_write(self, key: int, now: float) -> None:
        self.writes.record(key, now)

    def record_request(self, unit: int, now: float, miss: bool) -> None:
        self.requests.record(unit, now, miss)

    def write_counts(self, keys, now: float) -> np.ndarray:
        """Each key's writes in the window; its rate is count / window, none if 0."""
        return self.writes.counts(keys, now)

    def miss_rate_delta(self, unit: int, now: float) -> float:
        return self.requests.miss_rate_delta(unit, now)
