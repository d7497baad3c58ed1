"""The true-TTL oracle and the cache as a pair, against a dict model with ranges.

The simulation finds the entries a write makes stale through the oracle: the
serves `TrueTtlOracle.on_write` resolves, of the queries `QueryIndex.move`
returns and of the reads of the write's old or new value, go to
`CacheSystem.origin_update`, which marks those still live. Units 0-3 are
range queries over a table drawn per example, units 4-5 point reads of
records 0-1 of a six-record table. The model keeps every live entry with its
range and marks each live, unmarked entry whose range holds the write's old
or new value, in serve order, as a scan of the cache would. A small
capacity, TTLs on the same grid as the clock steps, and purge delays up to
several seconds make entries expire before the first write that touches them
and be evicted while their purge is in flight, so the oracle hands the cache
serves it no longer holds.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule  # noqa: E402

from ttl_lab.cachesys import CacheStats, CacheSystem, Lookup  # noqa: E402
from ttl_lab.telemetry import TrueTtlOracle  # noqa: E402
from ttl_lab.workload import QueryDef, QueryIndex, evaluate_query  # noqa: E402

CAPACITY = 4
QUERIES, RECORDS = 4, 6
units = st.integers(0, QUERIES + 1)
keys = st.integers(0, RECORDS - 1)
values = st.one_of(st.floats(0.0, 24.0, allow_nan=False), st.integers(0, 24).map(float))
widths = st.sampled_from([1e-9, 0.5, 4.0, 17.0, 30.0])
ttls = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 8.0]), st.floats(0.01, 10.0))
steps = st.sampled_from([0.0, 0.1, 0.5, 2.0])
delays = st.sampled_from([0.0, 0.5, 3.0])


class CacheOracleModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.oracle, self.cache = TrueTtlOracle(), CacheSystem(CAPACITY)
        self.now = 0.0
        self.next_serve = 0
        self.purges: list[tuple[float, int]] = []
        # live entries in serve order: sid -> [unit, lo, hi, expires_at, pending]
        self.live: dict[int, list] = {}
        self.unresolved: dict[int, tuple[float, float]] = {}  # the oracle's serves
        self.stats = CacheStats()

    @initialize(
        los=st.lists(values, min_size=QUERIES, max_size=QUERIES),
        spans=st.lists(widths, min_size=QUERIES, max_size=QUERIES),
        start=st.lists(values, min_size=RECORDS, max_size=RECORDS),
    )
    def build(self, los, spans, start):
        self.values = np.array(start)
        self.queries = [QueryDef(q, lo, lo + w) for q, (lo, w) in enumerate(zip(los, spans))]
        self.index = QueryIndex(
            self.queries, [evaluate_query(self.values, lo, hi).tolist() for _, lo, hi in self.queries]
        )

    def tick(self, dt: float) -> None:
        self.now += dt

    def reap(self) -> int:
        dead = [sid for sid, e in self.live.items() if e[3] <= self.now]
        for sid in dead:
            del self.live[sid]
        self.stats.expirations += len(dead)
        return len(dead)

    def model_lookup(self, unit: int) -> Lookup:
        sid = next((s for s, e in self.live.items() if e[0] == unit), None)
        if sid is not None and self.live[sid][3] <= self.now:
            del self.live[sid]
            self.stats.expirations += 1
            sid = None
        if sid is None:
            self.stats.misses += 1
            return Lookup.MISS
        self.stats.hits += 1
        if self.live[sid][4]:
            self.stats.stale_reads += 1
            return Lookup.STALE_HIT
        return Lookup.HIT

    @rule(unit=units, dt=steps)
    def lookup(self, unit, dt):
        self.tick(dt)
        assert self.cache.lookup(unit, self.now) is self.model_lookup(unit)

    @rule(unit=units, ttl=ttls, dt=steps)
    def serve(self, unit, ttl, dt):
        """A request: on a miss, the oracle records the serve and the cache fills."""
        self.tick(dt)
        outcome = self.cache.lookup(unit, self.now)
        assert outcome is self.model_lookup(unit)
        if outcome is not Lookup.MISS:
            return
        sid = self.next_serve
        self.next_serve += 1
        if unit < QUERIES:
            _, lo, hi = self.queries[unit]
            self.oracle.on_serve(sid, unit, self.now, ttl, query=unit)
        else:
            lo = float(self.values[unit - QUERIES])
            hi = math.nextafter(lo, math.inf)
            self.oracle.on_serve(sid, unit, self.now, ttl, value=lo)
        self.cache.insert(unit, sid, ttl, self.now)
        self.unresolved[sid] = (lo, hi)
        self.reap()
        if len(self.live) >= CAPACITY:  # the earliest expiry goes, ties by serve id
            del self.live[min(self.live, key=lambda s: (self.live[s][3], s))]
            self.stats.evictions += 1
        self.live[sid] = [unit, lo, hi, self.now + ttl, False]
        self.stats.inserts += 1

    @rule(key=keys, new=values, delay=delays, dt=steps)
    def write(self, key, new, delay, dt):
        self.write_value(key, new, delay, dt)

    @rule(key=keys, other=keys, delay=delays, dt=steps)
    def write_onto_a_record(self, key, other, delay, dt):
        """A write whose new value is another record's, which a read may hold."""
        self.write_value(key, float(self.values[other]), delay, dt)

    def write_value(self, key, new, delay, dt):
        self.tick(dt)
        old = float(self.values[key])
        self.values[key] = new

        def hit(lo, hi):
            return lo <= old < hi or lo <= new < hi

        resolved = self.oracle.on_write(self.index.move(key, old, new), old, new, self.now)
        assert resolved == [sid for sid, (lo, hi) in self.unresolved.items() if hit(lo, hi)]
        for sid in resolved:
            del self.unresolved[sid]
        marked = self.cache.origin_update(resolved, self.now)
        self.reap()
        expected = [sid for sid, e in self.live.items() if not e[4] and hit(e[1], e[2])]
        assert marked == expected
        for sid in marked:
            self.live[sid][4] = True
            self.purges.append((self.now + delay, sid))

    @rule(dt=steps)
    def purge_due(self, dt):
        self.tick(dt)
        due = sorted(p for p in self.purges if p[0] <= self.now)
        self.purges = [p for p in self.purges if p[0] > self.now]
        for _, sid in due:
            got = self.cache.apply_invalidation(sid, self.now)
            self.reap()
            want = self.live.pop(sid, None) is not None
            self.stats.invalidations += want
            assert got is want

    @rule(dt=steps)
    def sweep(self, dt):
        self.tick(dt)
        assert self.cache.sweep(self.now) == self.reap()

    @invariant()
    def same_state(self):
        self.cache.check_invariants()
        assert {e.unit: e.serve_id for e in self.cache.live_entries()} == {
            e[0]: sid for sid, e in self.live.items()
        }
        assert self.oracle.pending_count == len(self.unresolved)
        assert self.cache.stats == self.stats


TestCacheOracleModel = CacheOracleModel.TestCase
# No deadline: a loaded host would otherwise fail slow examples, and
# filterwarnings = error turns hypothesis's deadline warnings into failures.
TestCacheOracleModel.settings = settings(
    deadline=None, max_examples=100, stateful_step_count=40, database=None
)
