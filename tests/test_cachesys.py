"""Range index and cache semantics, checked against brute-force reference models."""

from __future__ import annotations

import numpy as np
import pytest

from ttl_lab.cachesys import CacheEntry, CacheStats, CacheSystem, Lookup
from ttl_lab.telemetry import RangeSet, TrueTtlOracle

# ---------------------------------------------------------------------------
# RangeSet


def test_rangeset_add_discard_contains():
    rs = RangeSet()
    rs.add(1, 0.0, 5.0)
    rs.add(2, 3.0, 7.0)
    assert len(rs) == 2
    assert rs.stab_either(1.0, 6.0) == [1, 2]
    assert rs.discard(3) is False  # never added
    assert rs.discard(1) is True
    assert rs.discard(1) is False
    assert len(rs) == 1
    assert rs.stab_either(1.0, 4.0) == [2]


def test_rangeset_rejects_bad_adds():
    rs = RangeSet()
    with pytest.raises(ValueError, match="empty range"):
        rs.add(1, 5.0, 5.0)
    with pytest.raises(ValueError, match="empty range"):
        rs.add(1, 5.0, 4.0)
    rs.add(1, 0.0, 1.0)
    with pytest.raises(ValueError, match="already present"):
        rs.add(1, 2.0, 3.0)


NON_FINITE = [float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("side", ["lo", "hi"])
def test_rangeset_rejects_non_finite_bounds(side, bad):
    rs = RangeSet()
    bounds = {"lo": 1.0, "hi": 3.0, side: bad}
    with pytest.raises(ValueError, match=f"range bound {side} .* is not finite"):
        rs.add(1, bounds["lo"], bounds["hi"])
    assert len(rs) == 0 and rs.discard(1) is False
    assert rs.stab_either(2.0, bad) == []


def test_rangeset_stab_is_half_open():
    rs = RangeSet()
    rs.add(7, 1.0, 2.0)
    assert rs.stab_either(1.0, 1.0) == [7]
    assert rs.stab_either(2.0, 2.0) == []
    assert rs.stab_either(1.999999, 1.999999) == [7]


def test_rangeset_stab_returns_ids_ascending():
    rs = RangeSet()
    for rid in (5, 3, 9, 1):  # added out of order
        rs.add(rid, 0.0, 10.0)
    assert rs.stab_either(4.0, 4.0) == [1, 3, 5, 9]
    rs.discard(3)
    assert rs.stab_either(4.0, 4.0) == [1, 5, 9]
    rs.add(3, 2.0, 5.0)  # re-added last, still found in id order
    assert rs.stab_either(4.0, 4.0) == [1, 3, 5, 9]


def test_rangeset_stab_either_orders_hits_across_buckets():
    rs = RangeSet()
    rs.add(4, 1000.0, 1001.0)
    rs.add(2, 0.0, 1.0)
    rs.add(8, -5.0, 2000.0)
    assert rs.stab_either(0.5, 1000.5) == [2, 4, 8]
    assert rs.stab_either(1000.5, 0.5) == [2, 4, 8]


def test_rangeset_matches_dict_oracle_under_churn():
    # Heavy add/discard traffic to push through both compaction and growth.
    rng = np.random.default_rng(31)
    rs = RangeSet()
    oracle: dict[int, tuple[float, float]] = {}
    next_id = 0
    for _ in range(3000):
        u = rng.random()
        if u < 0.55 or not oracle:
            lo = float(rng.uniform(0.0, 100.0))
            hi = lo + float(rng.uniform(0.01, 15.0))
            rs.add(next_id, lo, hi)
            oracle[next_id] = (lo, hi)
            next_id += 1
        elif u < 0.85:
            rid = int(rng.choice(list(oracle)))
            assert rs.discard(rid) is True
            del oracle[rid]
        else:
            v1 = float(rng.uniform(-5.0, 105.0))
            v2 = float(rng.uniform(-5.0, 105.0))
            expect_one = sorted(r for r, (lo, hi) in oracle.items() if lo <= v1 < hi)
            expect_two = sorted(
                r for r, (lo, hi) in oracle.items()
                if lo <= v1 < hi or lo <= v2 < hi
            )
            assert sorted(rs.stab_either(v1, v1)) == expect_one
            assert sorted(rs.stab_either(v1, v2)) == expect_two
        assert len(rs) == len(oracle)
    # final full sweep
    for v in np.linspace(-5.0, 105.0, 200):
        expect = sorted(r for r, (lo, hi) in oracle.items() if lo <= v < hi)
        assert sorted(rs.stab_either(float(v), float(v))) == expect


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
    with pytest.raises(ValueError, match="reused"):
        cache.insert(2, 0, 5.0, now=0.0)
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


def _serve(oracle, cache, unit, serve_id, lo, hi, ttl, now):
    """A miss's fill, in the simulation's order: the oracle first."""
    oracle.on_serve(serve_id, unit, lo, hi, now, ttl)
    cache.insert(unit, serve_id, ttl, now)


def _write(oracle, cache, old, new, now):
    """An origin write: the serves it resolves, then their live entries."""
    return cache.origin_update(oracle.on_write(old, new, now), now)


def test_origin_update_marks_pending_once():
    oracle, cache = TrueTtlOracle(), CacheSystem(4)
    _serve(oracle, cache, 1, 0, 0.0, 5.0, ttl=60.0, now=0.0)
    _serve(oracle, cache, 2, 1, 10.0, 15.0, ttl=60.0, now=0.0)
    assert _write(oracle, cache, 3.0, 99.0, now=1.0) == [0]
    assert [e.pending for e in cache.live_entries()] == [True, False]
    # same write region again: the serve is resolved, nothing newly touched
    assert _write(oracle, cache, 3.0, 99.0, now=2.0) == []
    # a write landing in the other range still finds it through the oracle
    assert _write(oracle, cache, 98.0, 12.0, now=3.0) == [1]
    assert [e.pending for e in cache.live_entries()] == [True, True]


def test_origin_update_marks_live_entries_in_the_order_given():
    cache = CacheSystem(3)
    cache.insert(1, 0, ttl=1.0, now=0.0)  # expires before the write
    cache.insert(2, 1, ttl=50.0, now=0.0)
    cache.insert(3, 2, ttl=10.0, now=0.0)
    cache.insert(4, 3, ttl=60.0, now=0.5)  # evicts serve 0, the earliest expiry
    cache.insert(5, 4, ttl=70.0, now=0.5)  # evicts serve 2
    assert cache.origin_update([4, 2, 0, 1, 99], now=2.0) == [4, 1]
    assert {e.serve_id: e.pending for e in cache.live_entries()} == {1: True, 3: False, 4: True}
    assert len(cache.live_entries()) == 3 and cache.stats.evictions == 2
    assert cache.origin_update([], now=2.0) == []


def test_pending_window_serves_stale_hits():
    oracle, cache = TrueTtlOracle(), CacheSystem(4)
    _serve(oracle, cache, 1, 0, 0.0, 5.0, ttl=60.0, now=0.0)
    _write(oracle, cache, 2.0, 2.5, now=1.0)
    assert cache.lookup(1, 1.001) is Lookup.STALE_HIT
    assert cache.stats.stale_reads == 1
    assert cache.apply_invalidation(0, now=1.002) is True
    assert cache.stats.invalidations == 1
    assert cache.lookup(1, 1.003) is Lookup.MISS


def test_apply_invalidation_noop_when_entry_already_gone():
    oracle, cache = TrueTtlOracle(), CacheSystem(4)
    _serve(oracle, cache, 1, 0, 0.0, 5.0, ttl=1.0, now=0.0)
    _write(oracle, cache, 2.0, 2.5, now=0.5)
    assert cache.lookup(1, 3.0) is Lookup.MISS  # expired before the purge landed
    assert cache.apply_invalidation(0, now=3.1) is False
    assert cache.stats.invalidations == 0
    assert cache.apply_invalidation(12345, now=3.2) is False


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("side", ["lo", "hi"])
def test_insert_rejects_non_finite_bounds_and_changes_nothing(side, bad):
    # a fill: TrueTtlOracle.on_serve rejects the bound before CacheSystem.insert runs
    oracle, cache = TrueTtlOracle(), CacheSystem(1)
    _serve(oracle, cache, 0, 0, 5.0, 6.0, ttl=10.0, now=0.0)
    bounds = {"lo": 1.0, "hi": 3.0, side: bad}
    with pytest.raises(ValueError, match=f"range bound {side} .* is not finite"):
        _serve(oracle, cache, 1, 1, bounds["lo"], bounds["hi"], ttl=10.0, now=1.0)
    cache.check_invariants()
    assert len(cache.live_entries()) == 1 and cache.stats.evictions == 0
    assert len(oracle.actions) == 1 and oracle.pending_count == 1
    assert cache.lookup(0, 2.0) is Lookup.HIT
    # the serve id and the unit were never taken
    _serve(oracle, cache, 1, 1, 1.0, 3.0, ttl=10.0, now=2.0)
    assert _write(oracle, cache, 2.0, 2.5, now=3.0) == [1]


def test_stats_rates():
    s = CacheStats(hits=8, misses=2, inserts=4, invalidations=1)
    assert s.requests == 10
    assert s.hit_rate == pytest.approx(0.8)
    assert s.invalidation_rate == pytest.approx(0.25)
    assert CacheStats().invalidation_rate == 0.0


# ---------------------------------------------------------------------------
# randomized equivalence against a reference model


class _RefCache:
    """Dict-of-entries mirror of the cache, with each entry's range: a write
    marks every live, unmarked entry whose range holds its old or new value."""

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

    def insert(self, unit, serve_id, lo, hi, ttl, now):
        self.sweep(now)
        if len(self._live()) >= self.capacity:
            victim = min(self._live(), key=lambda e: (e["expires_at"], e["serve_id"]))
            victim["alive"] = False
            self.stats.evictions += 1
        self.entries[serve_id] = {
            "serve_id": serve_id, "unit": unit, "lo": lo, "hi": hi,
            "expires_at": now + ttl, "pending": None, "alive": True,
        }
        self.stats.inserts += 1

    def origin_update(self, old, new, now):
        self.sweep(now)
        touched = []
        for e in self._live():
            if e["pending"] is None and (e["lo"] <= old < e["hi"] or e["lo"] <= new < e["hi"]):
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
    rng = np.random.default_rng(47)
    oracle, cache = TrueTtlOracle(), CacheSystem(12)
    ref = _RefCache(12)
    now = 0.0
    next_serve = 0
    purges: list[tuple[float, int]] = []

    for step in range(4000):
        now += float(rng.exponential(0.4))
        u = rng.random()
        if u < 0.45:
            unit = int(rng.integers(0, 30))
            got = cache.lookup(unit, now)
            want = ref.lookup(unit, now)
            assert got is want, f"step {step}: lookup {got} != {want}"
            if got is Lookup.MISS:
                lo = float(rng.uniform(0.0, 100.0))
                hi = lo + float(rng.uniform(0.05, 12.0))
                ttl = float(rng.uniform(0.3, 6.0))
                _serve(oracle, cache, unit, next_serve, lo, hi, ttl, now)
                ref.insert(unit, next_serve, lo, hi, ttl, now)
                next_serve += 1
        elif u < 0.75:
            old = float(rng.uniform(0.0, 100.0))
            new = float(rng.uniform(0.0, 100.0))
            got = _write(oracle, cache, old, new, now)
            want = ref.origin_update(old, new, now)
            assert got == want, f"step {step}: pending {got} != {want}"
            purges.extend((now + 0.002, sid) for sid in got)
        else:
            remaining = []
            for due, sid in purges:
                if due <= now:
                    assert cache.apply_invalidation(sid, now) == ref.apply_invalidation(sid, now)
                else:
                    remaining.append((due, sid))
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
    cache.insert(3, 2, 7.0, now=0.0)  # evicts
    assert cache.origin_update([0, 1], now=1.0) == [1]
    cache.apply_invalidation(1, now=1.2)
    cache.check_invariants()
    assert isinstance(cache.live_entries()[0], CacheEntry)
