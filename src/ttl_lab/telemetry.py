"""Run-time measurement: write rates, miss rates, and the true-TTL oracle.

Rates are computed over a sliding window (now - W, now]; a key or unit with no
events in the window has no rate ("unavailable"), which is distinct from a
rate of zero. Write counts come from one FIFO of (time, key) over the window
and one integer count per key, so the counts of a whole result set are one
array lookup; recording and querying share the tracker's clock, and a `now`
earlier than the last one raises ValueError instead of silently under-counting.
The oracle tracks every serve and resolves its true TTL at the
moment the first invalidating write is issued, including "shadow" resolutions
that land after the entry's nominal expiry; serves never hit by a write stay
censored and are excluded from error metrics. Its RangeSet of unresolved
serves is the run's only range index (see cachesys).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

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

    def rate(self, key: int, now: float) -> float | None:
        """Writes per second over (now - window, now]; None if none observed."""
        self._advance(now)
        n = int(self._counts[key]) if key < len(self._counts) else 0
        return n / self.window if n else None


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


@dataclass
class ServeRecord:
    """One cache fill as the oracle sees it."""

    serve_id: int
    unit: int
    served_at: float
    action: float
    lo: float
    hi: float
    resolved_at: float | None = None
    true_ttl: float | None = None
    shadow: bool = False  # resolved after the entry's nominal expiry

    @property
    def resolved(self) -> bool:
        return self.true_ttl is not None

    @property
    def error(self) -> float:
        if self.true_ttl is None:
            raise ValueError("censored serve has no error")
        return self.action - self.true_ttl


class TrueTtlOracle:
    """Ground truth: a serve's true TTL ends at the first write whose old or
    new value lands in the served range. Resolution happens at write issue
    time; propagation delay is a cache artifact, not part of the interval."""

    def __init__(self):
        self.records: list[ServeRecord] = []
        self._pending = RangeSet()
        self._by_id: dict[int, ServeRecord] = {}

    def on_serve(self, serve_id: int, unit: int, lo: float, hi: float, now: float, action: float) -> None:
        self._pending.add(serve_id, lo, hi)  # first: it rejects bad bounds
        rec = ServeRecord(serve_id, unit, served_at=now, action=action, lo=lo, hi=hi)
        self.records.append(rec)
        self._by_id[serve_id] = rec

    def on_write(self, old_value: float, new_value: float, now: float) -> list[ServeRecord]:
        """Resolve every pending serve the write invalidates; each at most once."""
        hit = []
        for serve_id in self._pending.stab_either(old_value, new_value):
            rec = self._by_id.pop(serve_id)
            self._pending.discard(serve_id)
            rec.resolved_at = now
            rec.true_ttl = now - rec.served_at
            rec.shadow = rec.true_ttl > rec.action
            hit.append(rec)
        return hit

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def resolved_records(self) -> list[ServeRecord]:
        return [r for r in self.records if r.resolved]

    def resolved_errors(self) -> list[float]:
        return [r.action - r.true_ttl for r in self.records if r.true_ttl is not None]

    def true_ttls(self) -> list[float]:
        return [r.true_ttl for r in self.records if r.true_ttl is not None]

    def records_for_unit(self, unit: int) -> list[ServeRecord]:
        return [r for r in self.records if r.unit == unit]


class Telemetry:
    """Facade bundling the trackers and oracle that estimators read."""

    def __init__(self, window: float = 60.0):
        self.window = window
        self.writes = WriteRateTracker(window)
        self.requests = MissRateTracker(window)
        self.oracle = TrueTtlOracle()

    def record_write(self, key: int, now: float) -> None:
        self.writes.record(key, now)

    def record_request(self, unit: int, now: float, miss: bool) -> None:
        self.requests.record(unit, now, miss)

    def write_rate(self, key: int, now: float) -> float | None:
        return self.writes.rate(key, now)

    def write_counts(self, keys, now: float) -> np.ndarray:
        """Each key's writes in the window; its rate is count / window, none if 0."""
        return self.writes.counts(keys, now)

    def miss_rate(self, unit: int, now: float) -> float | None:
        return self.requests.miss_rate(unit, now)

    def miss_rate_delta(self, unit: int, now: float) -> float:
        return self.requests.miss_rate_delta(unit, now)
