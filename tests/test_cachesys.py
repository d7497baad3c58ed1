"""Cache semantics and the oracle-driven invalidation flow, checked against
brute-force reference models."""

from __future__ import annotations


import numpy as np
import pytest

from ttl_lab.cachesys import CacheEntry, CacheStats, CacheSystem, Lookup
from ttl_lab.telemetry import TrueTtlOracle
from ttl_lab.workload import QueryDef, QueryIndex, evaluate_query

NON_FINITE = [float("nan"), float("inf"), -float("inf")]


def test_rangeset_add_discard_contains():
    # The oracle's pending serves, keyed by unit, took over the range set's
    # job: a serve is added by on_serve, counted while pending, and discarded
    # exactly once by the first write that touches its unit.
    oracle = TrueTtlOracle()
    oracle.on_serve(0, unit=1, now=0.0, action=5.0)
    oracle.on_serve(1, unit=2, now=0.0, action=5.0)
    oracle.on_serve(2, unit=3, now=0.0, action=5.0)
    assert oracle.pending_count == 3
    oracle.on_write([4], 1.0)  # touches none of them
    assert oracle.pending_count == 3 and np.isnan(oracle.true_ttl).all()
    oracle.on_write([1, 2, 3], 1.0)
    assert oracle.pending_count == 0
    oracle.on_write([1, 2, 3], 2.0)  # already resolved
    assert oracle.true_ttl.tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("side", ["lo", "hi"])
def test_rangeset_rejects_non_finite_bounds(side, bad):
    # The set of ranges that writes are matched against is the world's fixed
    # queries, indexed once by QueryIndex, which refuses a non-finite bound.
    bounds = {"lo": 1.0, "hi": 3.0, side: bad}
    queries = [QueryDef(0, 0.0, 1.0), QueryDef(1, bounds["lo"], bounds["hi"])]
    with pytest.raises(ValueError, match=f"query 1: range bound {side} .* is not finite"):
        QueryIndex(queries, [[], []])


# ---------------------------------------------------------------------------
# cache basics


def test_lookup_expiry_is_half_open():
    cache = CacheSystem(4)
    cache.insert(unit=1, serve_id=0, ttl=10.0, now=0.0)
    assert cache.lookup(1, 9.999) is Lookup.HIT
    assert cache.lookup(1, 10.0) is Lookup.MISS  # expires_at <= now is dead
    assert cache.stats.expirations == 1
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_lookup_unknown_unit_misses():
    cache = CacheSystem(4)
    assert cache.lookup(42, 0.0) is Lookup.MISS
    assert cache.stats.hit_rate == 0.0


def test_insert_validations():
    cache = CacheSystem(4)
    with pytest.raises(ValueError, match="ttl"):
        cache.insert(1, 0, 0.0, now=0.0)
    cache.insert(1, 0, 5.0, now=0.0)
    with pytest.raises(ValueError, match="live entry"):
        cache.insert(1, 1, 5.0, now=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_insert_rejects_non_finite_ttl(bad):
    cache = CacheSystem(4)
    with pytest.raises(ValueError, match=f"ttl {bad} is not a positive finite"):
        cache.insert(1, 0, bad, now=0.0)
    assert cache.stats.inserts == 0 and list(cache.live_entries()) == []
    cache.insert(1, 0, 5.0, now=0.0)  # serve id 0 was not consumed
    assert cache.lookup(1, 1.0) is Lookup.HIT


def test_capacity_evicts_earliest_expiring_live_entry():
    cache = CacheSystem(3)
    cache.insert(1, 0, ttl=30.0, now=0.0)
    cache.insert(2, 1, ttl=10.0, now=0.0)  # earliest expiry
    cache.insert(3, 2, ttl=20.0, now=0.0)
    cache.insert(4, 3, ttl=40.0, now=0.0)
    assert cache.stats.evictions == 1
    assert cache.lookup(2, 1.0) is Lookup.MISS  # the ttl=10 entry went first
    assert cache.lookup(1, 1.0) is Lookup.HIT
    assert cache.lookup(3, 1.0) is Lookup.HIT
    assert cache.lookup(4, 1.0) is Lookup.HIT


def test_eviction_skips_already_dead_heap_records():
    cache = CacheSystem(2)
    cache.insert(1, 0, ttl=1.0, now=0.0)
    cache.insert(2, 1, ttl=50.0, now=0.0)
    assert cache.lookup(1, 5.0) is Lookup.MISS  # expires lazily
    cache.insert(3, 2, ttl=60.0, now=5.0)
    # capacity reached again; the stale heap record for serve 0 must be skipped
    cache.insert(4, 3, ttl=70.0, now=5.0)
    assert cache.stats.evictions == 1
    assert cache.lookup(2, 5.0) is Lookup.MISS  # serve 1 was the true earliest
    assert cache.lookup(3, 5.0) is Lookup.HIT


def test_sweep_reaps_expired_and_counts():
    cache = CacheSystem(8)
    cache.insert(1, 0, ttl=1.0, now=0.0)
    cache.insert(2, 1, ttl=2.0, now=0.0)
    cache.insert(3, 2, ttl=9.0, now=0.0)
    assert cache.sweep(2.0) == 2
    assert cache.stats.expirations == 2
    assert len(cache.live_entries()) == 1
    assert cache.current_load(2.0) == pytest.approx(1.0 / 8.0)


# ---------------------------------------------------------------------------
# invalidation flow


def _serve(oracle, cache, unit, serve_id, ttl, now):
    """A miss's fill, in the simulation's order: the oracle first."""
    oracle.on_serve(serve_id, unit, now, ttl)
    cache.insert(unit, serve_id, ttl, now)


def _write(oracle, cache, touched, now):
    """An origin write touching units `touched`, in the simulation's order:
    the oracle resolves their serves, then the cache marks their live,
    unmarked entries; returns the marked serve ids."""
    oracle.on_write(touched, now)
    return [e.serve_id for e in cache.origin_update(touched, now)]


def test_origin_update_marks_pending_once():
    oracle, cache = TrueTtlOracle(), CacheSystem(4)
    _serve(oracle, cache, 1, 0, ttl=60.0, now=0.0)
    _serve(oracle, cache, 2, 1, ttl=60.0, now=0.0)
    assert _write(oracle, cache, [1], now=1.0) == [0]
    assert [e.pending for e in cache.live_entries()] == [True, False]
    # same query again: the serve is resolved, nothing newly touched
    assert _write(oracle, cache, [1], now=2.0) == []
    # a write touching the other query marks its entry
    assert _write(oracle, cache, [2], now=3.0) == [1]
    assert [e.pending for e in cache.live_entries()] == [True, True]


def test_origin_update_marks_live_entries_in_the_order_given():
    cache = CacheSystem(3)
    cache.insert(1, 0, ttl=1.0, now=0.0)  # expires before the write
    cache.insert(2, 1, ttl=50.0, now=0.0)
    cache.insert(3, 2, ttl=10.0, now=0.0)
    cache.insert(4, 3, ttl=60.0, now=0.5)  # evicts serve 0, the earliest expiry
    cache.insert(5, 4, ttl=70.0, now=0.5)  # evicts serve 2
    marked = cache.origin_update([5, 3, 1, 2, 99, 5], now=2.0)
    assert [e.serve_id for e in marked] == [4, 1]  # a unit given twice: once
    assert {e.serve_id: e.pending for e in cache.live_entries()} == {1: True, 3: False, 4: True}
    assert len(cache.live_entries()) == 3 and cache.stats.evictions == 2
    assert cache.origin_update([], now=2.0) == []


def test_pending_window_serves_stale_hits():
    oracle, cache = TrueTtlOracle(), CacheSystem(4)
    _serve(oracle, cache, 1, 0, ttl=60.0, now=0.0)
    oracle.on_write([1], now=1.0)
    [entry] = cache.origin_update([1], now=1.0)
    assert cache.lookup(1, 1.001) is Lookup.STALE_HIT
    assert cache.stats.stale_reads == 1
    assert cache.apply_invalidation(entry, now=1.002) is True
    assert cache.stats.invalidations == 1
    assert cache.lookup(1, 1.003) is Lookup.MISS


def test_apply_invalidation_noop_when_entry_already_gone():
    oracle, cache = TrueTtlOracle(), CacheSystem(4)
    _serve(oracle, cache, 1, 0, ttl=1.0, now=0.0)
    oracle.on_write([1], now=0.5)
    [entry] = cache.origin_update([1], now=0.5)
    assert cache.lookup(1, 3.0) is Lookup.MISS  # expired before the purge landed
    assert cache.apply_invalidation(entry, now=3.1) is False
    assert cache.stats.invalidations == 0
    never_cached = CacheEntry(unit=1, serve_id=12345, expires_at=9.0, pending=True)
    assert cache.apply_invalidation(never_cached, now=3.2) is False


@pytest.mark.parametrize("gone", ["expired", "evicted"])
def test_purge_of_a_dead_entry_leaves_its_units_new_entry(gone):
    # The marked entry dies inside the purge delay and a miss caches the same
    # unit again: the old purge is a no-op that counts nothing, and the new
    # entry stays live and fresh.
    cache = CacheSystem(1)
    cache.insert(1, 0, ttl=1.0, now=0.0)
    [old] = cache.origin_update([1], now=0.5)
    if gone == "expired":
        assert cache.lookup(1, 1.0) is Lookup.MISS
        assert cache.stats.expirations == 1
    else:
        cache.insert(2, 1, ttl=5.0, now=0.6)  # capacity 1: evicts the marked entry
        assert cache.stats.evictions == 1
        assert cache.lookup(1, 0.7) is Lookup.MISS
    cache.insert(1, 2, ttl=5.0, now=1.0)
    assert cache.apply_invalidation(old, now=1.2) is False
    assert cache.stats.invalidations == 0
    assert [(e.unit, e.serve_id, e.pending) for e in cache.live_entries()] == [(1, 2, False)]
    assert cache.lookup(1, 1.3) is Lookup.HIT


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("side", ["lo", "hi"])
def test_insert_rejects_non_finite_bounds_and_changes_nothing(side, bad):
    # A range query's bounds are checked once, when its world's index is
    # built, so no serve of a bad range reaches the oracle or the cache; a
    # point read's serve carries only its unit.
    bounds = {"lo": 1.0, "hi": 3.0, side: bad}
    oracle, cache = TrueTtlOracle(), CacheSystem(1)
    _serve(oracle, cache, 0, 0, ttl=10.0, now=0.0)
    with pytest.raises(ValueError, match=f"range bound {side} .* is not finite"):
        QueryIndex([QueryDef(0, bounds["lo"], bounds["hi"])], [[]])
    cache.check_invariants()
    assert len(cache.live_entries()) == 1 and cache.stats.evictions == 0
    assert len(oracle.actions) == 1 and oracle.pending_count == 1
    assert cache.lookup(0, 2.0) is Lookup.HIT


def test_stats_rates():
    s = CacheStats(hits=8, misses=2, inserts=4, invalidations=1)
    assert s.requests == 10
    assert s.hit_rate == pytest.approx(0.8)
    assert s.invalidation_rate == pytest.approx(0.25)
    assert CacheStats().invalidation_rate == 0.0


# ---------------------------------------------------------------------------
# randomized equivalence against a reference model


class _RefCache:
    """Dict-of-entries mirror of the cache, with what each entry served: a
    query's range, or a read's record. A write marks every live, unmarked
    entry whose range holds its old or new value, or that read its record."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries: dict[int, dict] = {}  # serve_id -> state, insertion-ordered
        self.stats = CacheStats()

    def _live(self):
        return [e for e in self.entries.values() if e["alive"]]

    def sweep(self, now):
        for e in self._live():
            if e["expires_at"] <= now:
                e["alive"] = False
                self.stats.expirations += 1

    def lookup(self, unit, now):
        entry = next((e for e in self._live() if e["unit"] == unit), None)
        if entry is not None and entry["expires_at"] <= now:
            entry["alive"] = False
            self.stats.expirations += 1
            entry = None
        if entry is None:
            self.stats.misses += 1
            return Lookup.MISS
        self.stats.hits += 1
        if entry["pending"] is not None:
            self.stats.stale_reads += 1
            return Lookup.STALE_HIT
        return Lookup.HIT

    def insert(self, unit, serve_id, served, ttl, now):
        """`served` is a query's (lo, hi), or a read's key."""
        self.sweep(now)
        if len(self._live()) >= self.capacity:
            victim = min(self._live(), key=lambda e: (e["expires_at"], e["serve_id"]))
            victim["alive"] = False
            self.stats.evictions += 1
        self.entries[serve_id] = {
            "serve_id": serve_id, "unit": unit, "served": served,
            "expires_at": now + ttl, "pending": None, "alive": True,
        }
        self.stats.inserts += 1

    def origin_update(self, key, old, new, now):
        self.sweep(now)
        touched = []
        for e in self._live():
            served = e["served"]
            if isinstance(served, int):
                hit = served == key
            else:
                lo, hi = served
                hit = lo <= old < hi or lo <= new < hi
            if e["pending"] is None and hit:
                e["pending"] = now
                touched.append(e["serve_id"])
        return touched

    def apply_invalidation(self, serve_id, now):
        self.sweep(now)
        e = self.entries.get(serve_id)
        if e is None or not e["alive"]:
            return False
        e["alive"] = False
        self.stats.invalidations += 1
        return True

    def live_units(self):
        return {e["unit"]: e["serve_id"] for e in self._live()}


def test_cache_matches_reference_model_under_random_traffic():
    # Units 0-19 are range queries over a fixed table, units 20-29 point reads
    # of keys 0-9 of a 40-record table, as in the simulation's unit space.
    rng = np.random.default_rng(47)
    values = rng.uniform(0.0, 100.0, size=40)
    los = rng.uniform(0.0, 100.0, size=20).tolist()
    queries = [QueryDef(q, lo, lo + w) for q, (lo, w) in enumerate(zip(los, rng.uniform(0.05, 12.0, 20).tolist()))]
    index = QueryIndex(queries, [evaluate_query(values, lo, hi).tolist() for _, lo, hi in queries])
    oracle, cache = TrueTtlOracle(), CacheSystem(12)
    ref = _RefCache(12)
    now = 0.0
    next_serve = 0
    purges: list[tuple[float, CacheEntry]] = []

    for step in range(4000):
        now += float(rng.exponential(0.4))
        u = rng.random()
        if u < 0.45:
            unit = int(rng.integers(0, 30))
            got = cache.lookup(unit, now)
            want = ref.lookup(unit, now)
            assert got is want, f"step {step}: lookup {got} != {want}"
            if got is Lookup.MISS:
                ttl = float(rng.uniform(0.3, 6.0))
                _serve(oracle, cache, unit, next_serve, ttl, now)
                served = queries[unit][1:] if unit < 20 else unit - 20
                ref.insert(unit, next_serve, served, ttl, now)
                next_serve += 1
        elif u < 0.75:
            key = int(rng.integers(0, 40))
            old = float(values[key])
            if rng.random() < 0.1:  # onto a read's value: the read stays valid
                new = float(values[int(rng.integers(0, 10))])
            else:
                new = float(rng.uniform(0.0, 100.0))
            values[key] = new
            touched = index.move(key, old, new) + [20 + key]
            oracle.on_write(touched, now)
            got = cache.origin_update(touched, now)
            want = ref.origin_update(key, old, new, now)
            # marks go in touched order, the reference's in serve order
            assert sorted(e.serve_id for e in got) == want, f"step {step}: pending {got} != {want}"
            purges.extend((now + 0.002, e) for e in got)
        else:
            remaining = []
            for due, entry in purges:
                if due <= now:
                    got = cache.apply_invalidation(entry, now)
                    assert got == ref.apply_invalidation(entry.serve_id, now)
                else:
                    remaining.append((due, entry))
            purges = remaining
        if step % 200 == 0:
            cache.check_invariants()
            ref.sweep(now)  # mirror the sweep current_load performs
            load = cache.current_load(now)
            assert {e.unit: e.serve_id for e in cache.live_entries()} == ref.live_units()
            assert load == len(ref.live_units()) / 12

    for field in ("hits", "misses", "stale_reads", "inserts",
                  "invalidations", "evictions", "expirations"):
        assert getattr(cache.stats, field) == getattr(ref.stats, field), field


def test_check_invariants_after_basic_churn():
    cache = CacheSystem(2)
    cache.insert(1, 0, 5.0, now=0.0)
    cache.insert(2, 1, 6.0, now=0.0)
    cache.insert(3, 2, 7.0, now=0.0)  # evicts unit 1's entry
    [entry] = cache.origin_update([1, 2], now=1.0)
    assert entry.serve_id == 1
    cache.apply_invalidation(entry, now=1.2)
    cache.check_invariants()
    assert isinstance(cache.live_entries()[0], CacheEntry)
