"""Run-time measurement: windowed counts and the true-TTL oracle.

Every count is over a sliding window (now - W, now] and comes from a
WindowCounter. Telemetry, which every run keeps, holds one: writes per key.
It alone turns them into rates (write_rates), which both estimators take as
plain numbers: a key's write rate is its count / W, and a key with no writes
in the window has no rate ("unavailable"), which is distinct from a rate of
zero, so it is left out. The NAF learners alone also read each unit's
miss rate, so each builds its own MissRateWindow, which counts requests and
misses per unit; a unit with no requests in the window has no miss rate.
Each counter keeps one monotone clock: a `now` earlier than its last raises
ValueError instead of silently under-counting.

The oracle keeps four columns indexed by serve id (unit, serve time, action,
true TTL) and resolves a serve's true TTL at the moment the first
invalidating write is issued, including "shadow" resolutions that land after
the entry's nominal expiry; serves never hit by a write stay censored (NaN)
and are excluded from error metrics. Its unresolved serves wait under their
unit. A write resolves the serves of the units it touches: the queries whose
range holds its old or new value, which the world's QueryIndex finds, and the
point read of its own record. The cache marks the entries of the same units
itself (see cachesys), so a write only fills the true TTL column.
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
    """Ground truth: a serve's true TTL ends at the first write that touches
    its unit. Resolution happens at write issue time; propagation delay is a
    cache artifact, not part of the interval.

    Serves are columns indexed by serve id, which must be dense and in serve
    order: `units`, `served_at`, `actions`, and `true_ttl`, NaN while the
    serve is censored. A resolved serve is a shadow when true_ttl > action.
    The pending serve ids wait in lists, by unit; a write resolves those of
    the units it touches and reports nothing, since which serves it resolved
    is in the true_ttl column.
    """

    def __init__(self):
        self.units = array("q")
        self.served_at = array("d")
        self.actions = array("d")
        self.true_ttl = array("d")
        self._pending: dict[int, list[int]] = {}

    def on_serve(self, serve_id: int, unit: int, now: float, action: float) -> None:
        """Record a serve of `unit`, pending until a write touches the unit."""
        if serve_id != len(self.units):
            raise ValueError(f"serve id {serve_id} is not the next one, {len(self.units)}")
        serves = self._pending.get(unit)
        if serves is None:
            self._pending[unit] = [serve_id]
        else:
            serves.append(serve_id)
        self.units.append(unit)
        self.served_at.append(now)
        self.actions.append(action)
        self.true_ttl.append(math.nan)

    def on_write(self, units: list[int], now: float) -> None:
        """Resolve every pending serve of the `units` a write touches, each
        serve once."""
        pop = self._pending.pop
        true_ttl, served_at = self.true_ttl, self.served_at
        for unit in units:
            for serve_id in pop(unit, ()):
                true_ttl[serve_id] = now - served_at[serve_id]

    @property
    def pending_count(self) -> int:
        return sum(map(len, self._pending.values()))

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


class MissRateWindow:
    """Requests and misses per unit over one window, for the NAF state.

    miss_rate_delta reports the change in a unit's miss rate since the last
    value reported for it, then makes that value the baseline; the first
    report for a unit and any empty-window call report 0 (an empty window
    leaves the baseline untouched).
    """

    def __init__(self, window: float):
        self.requests = WindowCounter(window)
        self.misses = WindowCounter(window)
        self._last_miss_rate: dict[int, float] = {}

    def record(self, unit: int, now: float, miss: bool) -> None:
        self.requests.record(unit, now)  # first: it rejects an earlier now
        if miss:
            self.misses.record(unit, now)

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


class Telemetry:
    """What every run measures: writes per key over the window, which the
    estimators read as rates, and the true-TTL oracle. The learners' miss
    rates are their own (MissRateWindow), over `writes.window`."""

    def __init__(self, window: float):
        self.writes = WindowCounter(window)
        self.oracle = TrueTtlOracle()

    def record_write(self, key: int, now: float) -> None:
        self.writes.record(key, now)

    def write_rates(self, keys, now: float) -> list[float]:
        """count / window of each key of `keys` with a write in the window, in
        key order; a key with none has no rate and is left out."""
        window = self.writes.window
        return [n / window for n in self.writes.counts(keys, now) if n]
