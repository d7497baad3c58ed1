"""The true-TTL oracle and the cache as a pair, against a dict model of units.

A write touches the queries `QueryIndex.move` returns and the read of the
written record; the simulation hands those units to
`TrueTtlOracle.on_write`, which resolves their pending serves, and to
`CacheSystem.origin_update`, which marks their live, unmarked entries, in
the order given. Units 0-3 are range queries over a table drawn per example,
units 4-5 point reads of records 0-1 of a six-record table. The model keeps
every live entry with its unit and marks each live, unmarked entry that the
write touches, as a scan of the cache would: a query's whose range holds the
write's old or new value, a read's whose record it writes. The two paths
must agree: every entry a write marks is of a serve that write resolves,
and every live entry of a serve it resolves is marked. A small capacity,
TTLs on the same grid as the clock steps, and purge delays up to several
seconds make entries expire before the first write that touches them and be
evicted while their purge is in flight.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule  # noqa: E402

from ttl_lab.cachesys import CacheEntry, CacheStats, CacheSystem, Lookup  # noqa: E402
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
        self.purges: list[tuple[float, int, CacheEntry]] = []
        # live entries in serve order: sid -> [unit, expires_at, pending]
        self.live: dict[int, list] = {}
        self.unresolved: dict[int, int] = {}  # the oracle's serves: sid -> unit
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
        dead = [sid for sid, e in self.live.items() if e[1] <= self.now]
        for sid in dead:
            del self.live[sid]
        self.stats.expirations += len(dead)
        return len(dead)

    def model_lookup(self, unit: int) -> Lookup:
        sid = next((s for s, e in self.live.items() if e[0] == unit), None)
        if sid is not None and self.live[sid][1] <= self.now:
            del self.live[sid]
            self.stats.expirations += 1
            sid = None
        if sid is None:
            self.stats.misses += 1
            return Lookup.MISS
        self.stats.hits += 1
        if self.live[sid][2]:
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
        self.oracle.on_serve(sid, unit, self.now, ttl)
        self.cache.insert(unit, sid, ttl, self.now)
        self.unresolved[sid] = unit
        self.reap()
        if len(self.live) >= CAPACITY:  # the earliest expiry goes, ties by serve id
            del self.live[min(self.live, key=lambda s: (self.live[s][1], s))]
            self.stats.evictions += 1
        self.live[sid] = [unit, self.now + ttl, False]
        self.stats.inserts += 1

    @rule(key=keys, new=values, delay=delays, dt=steps)
    def write(self, key, new, delay, dt):
        self.write_value(key, new, delay, dt)

    @rule(key=keys, other=keys, delay=delays, dt=steps)
    def write_onto_a_record(self, key, other, delay, dt):
        """A write whose new value is another record's, which a read of that
        record does not see."""
        self.write_value(key, float(self.values[other]), delay, dt)

    def write_value(self, key, new, delay, dt):
        self.tick(dt)
        old = float(self.values[key])
        self.values[key] = new

        def hit(unit):
            if unit >= QUERIES:
                return unit - QUERIES == key
            _, lo, hi = self.queries[unit]
            return lo <= old < hi or lo <= new < hi

        touched = self.index.move(key, old, new) + [QUERIES + key]
        true_ttl = self.oracle.true_ttl
        self.oracle.on_write(touched, self.now)
        resolved = [sid for sid in self.unresolved if not np.isnan(true_ttl[sid])]
        assert resolved == [sid for sid, unit in self.unresolved.items() if hit(unit)]
        for sid in resolved:
            del self.unresolved[sid]
        marked = self.cache.origin_update(touched, self.now)
        self.reap()
        # the live, unmarked entry of each touched unit, in touched order
        unmarked = {e[0]: sid for sid, e in self.live.items() if not e[2]}
        expected = [unmarked[unit] for unit in touched if unit in unmarked]
        assert sorted(expected) == [sid for sid, e in self.live.items() if not e[2] and hit(e[0])]
        assert [e.serve_id for e in marked] == expected
        # the paths agree: a marked entry's serve is one this write resolved,
        # and a live entry of a serve it resolved is marked
        for entry in marked:
            assert true_ttl[entry.serve_id] == self.now - self.oracle.served_at[entry.serve_id]
        assert {sid for sid in resolved if sid in self.live} == set(expected)
        for entry in marked:
            self.live[entry.serve_id][2] = True
            self.purges.append((self.now + delay, entry.serve_id, entry))

    @rule(dt=steps)
    def purge_due(self, dt):
        self.tick(dt)
        due = sorted(p for p in self.purges if p[0] <= self.now)
        self.purges = [p for p in self.purges if p[0] > self.now]
        for _, sid, entry in due:
            got = self.cache.apply_invalidation(entry, self.now)
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
