"""Sliding-window counts and the true-TTL oracle vs a forward-scan reference."""

from __future__ import annotations

import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from ttl_lab.estimators import poisson_ttl
from ttl_lab.nafagent import build_state
from ttl_lab.telemetry import MissRateWindow, Telemetry, TrueTtlOracle, WindowCounter
from ttl_lab.workload import QueryDef, QueryIndex, evaluate_query

# ---------------------------------------------------------------------------
# write rates


def test_write_rate_counts_over_window():
    tr = WindowCounter(10.0)
    for t in (1.0, 2.0, 3.0):
        tr.record(7, t)
    assert tr.counts([7], 5.0) == [3]  # a rate of 3 / 10 per second
    assert tr.count(7, 5.0) == 3


def test_write_rate_window_is_left_open():
    # Window is (now - W, now]: an event exactly W old has fallen out.
    tr = WindowCounter(10.0)
    tr.record(1, 0.0)
    assert tr.counts([1], 9.999) == [1]
    assert tr.counts([1], 10.0) == [0]


def test_write_rate_none_is_not_zero():
    # A count of 0 is no rate at all (poisson_ttl and build_state skip it),
    # and a key above every key written so far counts 0 too.
    tr = WindowCounter(5.0)
    assert tr.counts([3, 900], 100.0) == [0, 0]
    assert tr.count(900, 100.0) == 0
    tr.record(3, 100.0)
    assert tr.counts(np.array([3, 4, 900]), 100.0) == [1, 0, 0]  # other keys unaffected


def test_write_rate_rejects_bad_window():
    for make in (WindowCounter, Telemetry, MissRateWindow):
        with pytest.raises(ValueError, match="window"):
            make(0.0)


@pytest.mark.parametrize("window", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("make", [Telemetry, WindowCounter, MissRateWindow])
def test_windows_reject_non_finite(make, window):
    with pytest.raises(ValueError, match="window must be a positive finite number"):
        make(window)


class _DequeWriteRates:
    """Per-key deques of write times, pruned when the key is asked for: the
    way write rates were first computed, kept as the reference."""

    def __init__(self, window):
        self.window = window
        self._events = {}

    def record(self, key, now):
        self._events.setdefault(key, deque()).append(now)

    def count(self, key, now):
        dq = self._events.get(key, deque())
        while dq and dq[0] <= now - self.window:
            dq.popleft()
        return len(dq)

    def rate(self, key, now):
        n = self.count(key, now)
        return n / self.window if n else None


def _reference_poisson_ttl(keys, ref, now, max_ttl):
    known, unknown = 0.0, 0
    for k in keys:
        r = ref.rate(int(k), now)
        if r is None:
            unknown += 1
        else:
            known += r
    if known == 0.0:
        return max_ttl / unknown
    return min(max_ttl, 1.0 / (known + unknown / max_ttl))


def _reference_state(keys, ref, now, rate_inputs):
    rates = [min(max(r, 0.0), 1.0) for k in keys if (r := ref.rate(int(k), now)) is not None]
    rates.sort(reverse=True)
    top = rates[:rate_inputs]
    return top + [0.0] * (rate_inputs - len(top)) + [0.0]  # no requests: delta 0


def test_write_counts_match_per_key_deque_reference():
    # Times are multiples of 0.25 and the window is 10 s, so many queries fall
    # exactly on the window edge of some write (which must have left it).
    window = 10.0
    rng = np.random.default_rng(12)
    tel, ref, no_requests = Telemetry(window), _DequeWriteRates(window), MissRateWindow(window)
    write_times = set()
    edge_queries = 0
    now = 0.0
    for _ in range(6000):
        now += float(rng.choice([0.0, 0.25, 0.5, 1.0]))
        if rng.random() < 0.6:
            key = int(rng.integers(0, 40))
            tel.record_write(key, now)
            ref.record(key, now)
            write_times.add(now)
            continue
        keys = rng.choice(60, size=int(rng.integers(1, 25)), replace=False)  # 40-59 never written
        edge_queries += (now - window) in write_times
        assert tel.writes.counts(keys, now) == [ref.count(int(k), now) for k in keys]
        rates = tel.write_rates(keys, now)
        assert rates == [r for k in keys if (r := ref.rate(int(k), now)) is not None]
        assert poisson_ttl(rates, len(keys), 300.0) == _reference_poisson_ttl(keys, ref, now, 300.0)
        state = build_state(rates, no_requests.miss_rate_delta(0, now), 6)
        assert state.tolist() == _reference_state(keys, ref, now, 6)
    assert edge_queries > 100
    with pytest.raises(ValueError, match="cannot go back"):
        tel.write_rates([0], now - 0.25)


def test_write_tracker_clock_cannot_go_back():
    tr = WindowCounter(10.0)
    tr.record(1, 5.0)
    assert tr.counts([1, 2], 5.0) == [1, 0]  # the same time again is fine
    for go_back in (lambda: tr.counts([1], 4.0), lambda: tr.record(1, 4.0),
                    lambda: tr.count(1, 4.0), lambda: tr.counts([1], math.nan)):
        with pytest.raises(ValueError, match="cannot go back"):
            go_back()
    assert tr.counts([1], 14.0) == [1]


def test_window_counter_rejects_negative_ids():
    # A negative id would index the count list from its end and count
    # silently against the highest id.
    w = WindowCounter(10.0)
    w.record(3, 0.0)
    for bad in (lambda: w.record(-1, 0.0), lambda: w.count(-1, 0.0),
                lambda: w.counts([3, -1], 1.0), lambda: w.counts(np.array([-2]), 1.0)):
        with pytest.raises(ValueError, match="ids must be >= 0"):
            bad()
    assert w.counts([3, 0, 7], 1.0) == [1, 0, 0]
    assert w.counts([], 1.0) == []


# ---------------------------------------------------------------------------
# miss rates


def test_miss_rate_fraction_over_window():
    tr = MissRateWindow(10.0)
    tr.record(1, 1.0, miss=True)
    tr.record(1, 2.0, miss=False)
    tr.record(1, 3.0, miss=False)
    tr.record(1, 4.0, miss=True)
    assert tr.miss_rate(1, 5.0) == pytest.approx(0.5)


def test_miss_rate_none_when_window_empty():
    tr = MissRateWindow(10.0)
    assert tr.miss_rate(1, 0.0) is None
    tr.record(1, 0.0, miss=True)
    assert tr.miss_rate(1, 9.0) == pytest.approx(1.0)
    assert tr.miss_rate(1, 10.0) is None  # the one event just slid out


def test_miss_rate_prunes_miss_counts():
    tr = MissRateWindow(10.0)
    tr.record(1, 0.0, miss=True)
    tr.record(1, 8.0, miss=False)
    tr.record(1, 12.0, miss=False)
    # the t=0 miss left the window; 1 miss-free pair remains plus the miss at none
    assert tr.miss_rate(1, 12.0) == pytest.approx(0.0)


def test_miss_rate_delta_semantics():
    tr = MissRateWindow(100.0)
    tr.record(1, 1.0, miss=True)
    assert tr.miss_rate_delta(1, 2.0) == 0.0  # first report seeds the baseline
    tr.record(1, 3.0, miss=False)
    # rate moved 1.0 -> 0.5
    assert tr.miss_rate_delta(1, 4.0) == pytest.approx(-0.5)
    assert tr.miss_rate_delta(1, 5.0) == 0.0  # unchanged since last report


def test_miss_rate_delta_empty_window_keeps_baseline():
    tr = MissRateWindow(10.0)
    tr.record(1, 0.0, miss=True)
    assert tr.miss_rate_delta(1, 1.0) == 0.0  # baseline = 1.0
    assert tr.miss_rate_delta(1, 50.0) == 0.0  # empty window, baseline untouched
    tr.record(1, 60.0, miss=True)
    tr.record(1, 61.0, miss=False)
    # 0.5 against the surviving 1.0 baseline
    assert tr.miss_rate_delta(1, 62.0) == pytest.approx(-0.5)


def test_miss_rate_delta_unknown_unit():
    tr = MissRateWindow(10.0)
    assert tr.miss_rate_delta(99, 5.0) == 0.0


def test_requests_and_miss_rates_cannot_go_back():
    # A request recorded at an earlier now would be counted as if it were
    # still in the window after newer ones left it; it fails where it enters
    # and changes nothing.
    win = MissRateWindow(10.0)
    win.record(1, 5.0, miss=True)
    win.record(2, 6.0, miss=False)
    for go_back in (lambda: win.record(1, 4.0, miss=True),
                    lambda: win.record(3, 5.5, miss=False),
                    lambda: win.miss_rate(1, 5.0),
                    lambda: win.miss_rate_delta(1, 5.0),
                    lambda: win.record(1, math.nan, miss=True)):
        with pytest.raises(ValueError, match="cannot go back"):
            go_back()
    assert win.miss_rate_delta(1, 6.0) == 0.0  # seeds the baseline at 1.0
    assert (win.miss_rate(1, 14.0), win.miss_rate(2, 14.0)) == (1.0, 0.0)
    assert win.miss_rate(1, 15.0) is None  # the t=5 miss left the window
    with pytest.raises(ValueError, match="cannot go back"):
        win.miss_rate_delta(1, 14.5)


# ---------------------------------------------------------------------------
# oracle


def _touches(served, key, old, new):
    """Whether a write of `key` from `old` to `new` touches a serve: of a
    query's (lo, hi), when either value lands in it; of a read's key, when
    it is that key."""
    if isinstance(served, int):
        return served == key
    lo, hi = served
    return lo <= old < hi or lo <= new < hi


def _brute_force(serves, writes):
    """Forward scan: each serve resolves at the first later write that
    touches it. Timestamps are distinct by construction, so a plain merge by
    time is a total order."""
    events = sorted(
        [(serves[i][0], "serve", i) for i in range(len(serves))]
        + [(writes[j][0], "write", j) for j in range(len(writes))]
    )
    resolution: dict[int, float] = {}
    pending: list[int] = []
    for t, kind, idx in events:
        if kind == "serve":
            pending.append(idx)
            continue
        _, key, old, new = writes[idx]
        still = []
        for sid in pending:
            if _touches(serves[sid][2], key, old, new):
                resolution[sid] = t
            else:
                still.append(sid)
        pending = still
    return resolution


def _resolve(oracle, units, now):
    """oracle.on_write(units, now); returns the serve ids it resolved, read
    from the true_ttl column, ascending."""
    before = np.isnan(oracle.true_ttl)
    oracle.on_write(units, now)
    return np.flatnonzero(before & ~np.isnan(oracle.true_ttl)).tolist()


def test_oracle_matches_forward_scan_on_random_stream():
    # Serves are of 30 fixed ranges (units 0-29) or point reads of a
    # 50-record table (units 30-79); each write moves one record, one in ten
    # onto another record's value, and touches the queries the index returns
    # and the read of its record.
    rng = np.random.default_rng(53)
    values = rng.uniform(0.0, 50.0, size=50)
    los = rng.uniform(0.0, 50.0, size=30).tolist()
    queries = [QueryDef(q, lo, lo + w) for q, (lo, w) in enumerate(zip(los, rng.uniform(0.1, 8.0, 30).tolist()))]
    index = QueryIndex(queries, [evaluate_query(values, lo, hi).tolist() for _, lo, hi in queries])
    oracle = TrueTtlOracle()
    serves = []  # (time, unit, query (lo, hi) or read key, action)
    writes = []  # (time, key, old, new)
    resolved_by_write = {}  # sid -> time of the write that resolved it
    now = 0.0
    for sid in range(400):
        now += float(rng.exponential(0.3))
        if rng.random() < 0.6:
            action = float(rng.uniform(0.2, 5.0))  # short: shadows will occur
            if rng.random() < 0.75:
                q, lo, hi = queries[int(rng.integers(30))]
                unit, served = q, (lo, hi)
            else:
                key = int(rng.integers(50))
                unit, served = 30 + key, key
            oracle.on_serve(len(serves), unit=unit, now=now, action=action)
            serves.append((now, unit, served, action))
        else:
            key = int(rng.integers(50))
            old = float(values[key])
            if rng.random() < 0.1:  # onto another record's value
                new = float(values[int(rng.integers(50))])
            else:
                new = float(rng.uniform(0.0, 50.0))
            values[key] = new
            for s in _resolve(oracle, index.move(key, old, new) + [30 + key], now):
                assert s not in resolved_by_write
                resolved_by_write[s] = now
            writes.append((now, key, old, new))

    expected = _brute_force(serves, writes)
    assert resolved_by_write == expected
    assert len(oracle.actions) == len(serves)
    shadows = 0
    for sid, (t_serve, unit, _, action) in enumerate(serves):
        assert oracle.units[sid] == unit
        assert oracle.served_at[sid] == t_serve and oracle.actions[sid] == action
        true_ttl = oracle.true_ttl[sid]
        if sid in expected:
            assert true_ttl == expected[sid] - t_serve  # bit-exact, same arithmetic
            shadows += true_ttl > action
        else:
            assert math.isnan(true_ttl)
    assert shadows > 0, "stream produced no shadow resolutions; weak test"
    reads = [sid for sid, (_, unit, _, _) in enumerate(serves) if unit >= 30]
    assert any(sid in expected for sid in reads), "no read was resolved; weak test"
    assert oracle.pending_count == len(serves) - len(expected)


def test_oracle_resolves_each_serve_once():
    oracle = TrueTtlOracle()
    oracle.on_serve(0, unit=1, now=0.0, action=5.0)
    assert oracle.on_write([1], 2.0) is None
    assert oracle.true_ttl[0] == 2.0
    again = _resolve(oracle, [1], 3.0)
    assert again == []  # already resolved, not re-stamped
    assert oracle.true_ttl[0] == 2.0


def test_oracle_resolves_the_units_a_write_touches():
    oracle = TrueTtlOracle()
    for sid, unit in enumerate((1, 2, 3)):
        oracle.on_serve(sid, unit=unit, now=0.0, action=5.0)
    assert _resolve(oracle, [2, 1, 9], 1.0) == [0, 1]  # unit 9 has no serve
    assert _resolve(oracle, [3, 3], 2.0) == [2]  # a unit given twice: once
    assert oracle.true_ttl.tolist() == [1.0, 1.0, 2.0] and oracle.pending_count == 0


def test_oracle_write_onto_a_read_value_resolves_the_read():
    # A read of key 9 in a 10-query world is unit 19: a write of record 9,
    # even one onto its own value, touches that unit and resolves every
    # pending serve of it; writes of the neighbouring records do not.
    oracle = TrueTtlOracle()
    oracle.on_serve(0, unit=19, now=0.0, action=5.0)
    oracle.on_serve(1, unit=19, now=1.0, action=5.0)  # the same record, served again
    assert _resolve(oracle, [18], 1.5) == []
    assert _resolve(oracle, [20], 1.5) == []
    assert _resolve(oracle, [19], 2.0) == [0, 1]
    assert oracle.true_ttl.tolist() == [2.0, 1.0] and oracle.pending_count == 0


def test_oracle_resolves_every_serve_of_the_queries_and_read_a_write_touches():
    # units 2, 4 and 7 are queries, 11 a read, as in a 10-query world
    oracle = TrueTtlOracle()
    for sid, unit in enumerate((4, 11, 2, 4, 7)):
        oracle.on_serve(sid, unit=unit, now=0.0, action=1.0)
    assert _resolve(oracle, [4, 2, 11], 1.0) == [0, 1, 2, 3]
    assert oracle.pending_count == 1


def test_oracle_shadow_flag():
    # a shadow resolution: the write comes after the entry's nominal expiry
    oracle = TrueTtlOracle()
    oracle.on_serve(0, unit=1, now=0.0, action=2.0)
    oracle.on_write([1], 7.0)  # resolves well after the 2 s action
    assert oracle.true_ttl[0] == 7.0 and oracle.true_ttl[0] > oracle.actions[0]
    assert oracle.resolved_errors().tolist() == [-5.0]


def test_oracle_accessors():
    oracle = TrueTtlOracle()
    oracle.on_serve(0, unit=3, now=0.0, action=1.0)
    oracle.on_serve(1, unit=4, now=1.0, action=1.5)
    oracle.on_serve(2, unit=3, now=2.0, action=0.5)
    oracle.on_write([3], 4.0)
    assert oracle.true_ttls().tolist() == [4.0, 2.0]
    assert oracle.resolved_errors().tolist() == [-3.0, -1.5]
    assert math.isnan(oracle.true_ttl[1])  # censored
    assert oracle.serves_of_unit(3) == [0, 2]
    assert oracle.serves_of_unit(4) == [1]
    assert oracle.serves_of_unit(99) == []
    assert oracle.records is oracle.actions


def test_oracle_rejects_out_of_order_serve_ids_and_changes_nothing():
    oracle = TrueTtlOracle()
    oracle.on_serve(0, unit=3, now=0.0, action=1.0)
    columns = (oracle.units, oracle.served_at, oracle.actions, oracle.true_ttl)
    before = [c.tobytes() for c in columns]
    for bad in (0, 2, -1):  # a repeat, a gap, and a negative id
        with pytest.raises(ValueError, match=f"serve id {bad} is not the next one, 1"):
            oracle.on_serve(bad, unit=4, now=1.0, action=1.0)
    assert [c.tobytes() for c in columns] == before
    assert oracle.pending_count == 1
    assert _resolve(oracle, [4], 2.0) == []  # no serve was filed for it
    oracle.on_serve(1, unit=4, now=1.0, action=1.0)
    assert _resolve(oracle, [4], 2.0) == [1]


def test_oracle_memory_per_resolved_serve():
    # Every serve is resolved by the write that follows it, so the pending
    # lists stay small and what remains is the four columns: 32 bytes a serve
    # plus the arrays' spare capacity.
    n = 100_000
    oracle = TrueTtlOracle()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for sid in range(n):
            q = sid % 1000
            oracle.on_serve(sid, q, float(sid), 5.0)
            oracle.on_write([q], sid + 0.5)
        used, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(oracle.resolved_errors()) == n and oracle.pending_count == 0
    per_serve = (used - base) / n
    assert per_serve <= 64, f"{per_serve:.1f} bytes per resolved serve"


def test_telemetry_facade_wiring():
    tel, learner = Telemetry(window=20.0), MissRateWindow(20.0)
    tel.record_write(5, 1.0)
    learner.record(2, 1.0, miss=True)
    assert tel.write_rates([5, 6], 2.0) == [1 / 20.0]  # key 6 has no write: no rate
    assert learner.miss_rate(2, 2.0) == 1.0
    assert learner.miss_rate_delta(2, 2.0) == 0.0
    assert tel.writes.window == 20.0
    assert learner.requests.window == learner.misses.window == 20.0
    assert len(tel.oracle.actions) == 0
