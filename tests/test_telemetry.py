"""Sliding-window rates and the true-TTL oracle vs a forward-scan reference."""

from __future__ import annotations

import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from ttl_lab.estimators import poisson_ttl
from ttl_lab.nafagent import build_state
from ttl_lab.telemetry import MissRateTracker, Telemetry, TrueTtlOracle, WriteRateTracker

# ---------------------------------------------------------------------------
# write rates


def test_write_rate_counts_over_window():
    tr = WriteRateTracker(10.0)
    for t in (1.0, 2.0, 3.0):
        tr.record(7, t)
    assert tr.counts([7], 5.0).tolist() == [3]  # a rate of 3 / 10 per second


def test_write_rate_window_is_left_open():
    # Window is (now - W, now]: an event exactly W old has fallen out.
    tr = WriteRateTracker(10.0)
    tr.record(1, 0.0)
    assert tr.counts([1], 9.999).tolist() == [1]
    assert tr.counts([1], 10.0).tolist() == [0]


def test_write_rate_none_is_not_zero():
    # A count of 0 is no rate at all (poisson_ttl and build_state skip it),
    # and a key above every key written so far counts 0 too.
    tr = WriteRateTracker(5.0)
    assert tr.counts([3, 900], 100.0).tolist() == [0, 0]
    tr.record(3, 100.0)
    assert tr.counts([3, 4, 900], 100.0).tolist() == [1, 0, 0]  # other keys unaffected


def test_write_rate_rejects_bad_window():
    with pytest.raises(ValueError, match="window"):
        WriteRateTracker(0.0)


@pytest.mark.parametrize("window", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("make", [Telemetry, WriteRateTracker, MissRateTracker])
def test_windows_reject_non_finite(make, window):
    with pytest.raises(ValueError, match="window must be a positive finite number"):
        make(window)


class _DequeWriteRates:
    """Per-key deques of write times, pruned when the key is asked for: the
    tracker write rates were first computed with, kept as the reference."""

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
    tel, ref = Telemetry(window), _DequeWriteRates(window)
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
        assert tel.write_counts(keys, now).tolist() == [ref.count(int(k), now) for k in keys]
        assert poisson_ttl(keys, tel, now, 300.0) == _reference_poisson_ttl(keys, ref, now, 300.0)
        assert build_state(keys, tel, 0, now, 6).tolist() == _reference_state(keys, ref, now, 6)
    assert edge_queries > 100
    with pytest.raises(ValueError, match="cannot go back"):
        tel.write_counts([0], now - 0.25)


def test_write_tracker_clock_cannot_go_back():
    tr = WriteRateTracker(10.0)
    tr.record(1, 5.0)
    assert tr.counts([1, 2], 5.0).tolist() == [1, 0]  # the same time again is fine
    for go_back in (lambda: tr.counts([1], 4.0), lambda: tr.record(1, 4.0),
                    lambda: tr.counts([1], math.nan)):
        with pytest.raises(ValueError, match="cannot go back"):
            go_back()
    assert tr.counts([1], 14.0).tolist() == [1]


# ---------------------------------------------------------------------------
# miss rates


def test_miss_rate_fraction_over_window():
    tr = MissRateTracker(10.0)
    tr.record(1, 1.0, miss=True)
    tr.record(1, 2.0, miss=False)
    tr.record(1, 3.0, miss=False)
    tr.record(1, 4.0, miss=True)
    assert tr.miss_rate(1, 5.0) == pytest.approx(0.5)


def test_miss_rate_none_when_window_empty():
    tr = MissRateTracker(10.0)
    assert tr.miss_rate(1, 0.0) is None
    tr.record(1, 0.0, miss=True)
    assert tr.miss_rate(1, 9.0) == pytest.approx(1.0)
    assert tr.miss_rate(1, 10.0) is None  # the one event just slid out


def test_miss_rate_prunes_miss_counts():
    tr = MissRateTracker(10.0)
    tr.record(1, 0.0, miss=True)
    tr.record(1, 8.0, miss=False)
    tr.record(1, 12.0, miss=False)
    # the t=0 miss left the window; 1 miss-free pair remains plus the miss at none
    assert tr.miss_rate(1, 12.0) == pytest.approx(0.0)


def test_miss_rate_delta_semantics():
    tr = MissRateTracker(100.0)
    tr.record(1, 1.0, miss=True)
    assert tr.miss_rate_delta(1, 2.0) == 0.0  # first report seeds the baseline
    tr.record(1, 3.0, miss=False)
    # rate moved 1.0 -> 0.5
    assert tr.miss_rate_delta(1, 4.0) == pytest.approx(-0.5)
    assert tr.miss_rate_delta(1, 5.0) == 0.0  # unchanged since last report


def test_miss_rate_delta_empty_window_keeps_baseline():
    tr = MissRateTracker(10.0)
    tr.record(1, 0.0, miss=True)
    assert tr.miss_rate_delta(1, 1.0) == 0.0  # baseline = 1.0
    assert tr.miss_rate_delta(1, 50.0) == 0.0  # empty window, baseline untouched
    tr.record(1, 60.0, miss=True)
    tr.record(1, 61.0, miss=False)
    # 0.5 against the surviving 1.0 baseline
    assert tr.miss_rate_delta(1, 62.0) == pytest.approx(-0.5)


def test_miss_rate_delta_unknown_unit():
    tr = MissRateTracker(10.0)
    assert tr.miss_rate_delta(99, 5.0) == 0.0


# ---------------------------------------------------------------------------
# oracle


def _brute_force(serves, writes):
    """Forward scan: each serve resolves at the first later write whose old or
    new value lands inside the served range. Timestamps are distinct by
    construction, so a plain merge by time is a total order."""
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
        _, old, new = writes[idx]
        still = []
        for sid in pending:
            _, lo, hi, _action = serves[sid]
            if lo <= old < hi or lo <= new < hi:
                resolution[sid] = t
            else:
                still.append(sid)
        pending = still
    return resolution


def test_oracle_matches_forward_scan_on_random_stream():
    rng = np.random.default_rng(53)
    oracle = TrueTtlOracle()
    serves = []  # (time, lo, hi, action)
    writes = []  # (time, old, new)
    resolved_by_write = {}  # sid -> time of the write whose on_write returned it
    now = 0.0
    for sid in range(400):
        now += float(rng.exponential(0.3))
        if rng.random() < 0.6:
            lo = float(rng.uniform(0.0, 50.0))
            hi = lo + float(rng.uniform(0.1, 8.0))
            action = float(rng.uniform(0.2, 5.0))  # short: shadows will occur
            oracle.on_serve(len(serves), unit=len(serves) % 17, lo=lo, hi=hi,
                            now=now, action=action)
            serves.append((now, lo, hi, action))
        else:
            old = float(rng.uniform(0.0, 50.0))
            new = float(rng.uniform(0.0, 50.0))
            for s in oracle.on_write(old, new, now):
                assert s not in resolved_by_write
                resolved_by_write[s] = now
            writes.append((now, old, new))

    expected = _brute_force(serves, writes)
    assert resolved_by_write == expected
    assert len(oracle.actions) == len(serves)
    shadows = 0
    for sid, (t_serve, lo, hi, action) in enumerate(serves):
        assert oracle.units[sid] == sid % 17
        assert oracle.served_at[sid] == t_serve and oracle.actions[sid] == action
        true_ttl = oracle.true_ttl[sid]
        if sid in expected:
            assert true_ttl == expected[sid] - t_serve  # bit-exact, same arithmetic
            shadows += true_ttl > action
        else:
            assert math.isnan(true_ttl)
    assert shadows > 0, "stream produced no shadow resolutions; weak test"
    assert oracle.pending_count == len(serves) - len(expected)


def test_oracle_resolves_each_serve_once():
    oracle = TrueTtlOracle()
    oracle.on_serve(0, unit=1, lo=0.0, hi=10.0, now=0.0, action=5.0)
    assert oracle.on_write(3.0, 60.0, 2.0) == [0]
    assert oracle.true_ttl[0] == 2.0
    again = oracle.on_write(4.0, 61.0, 3.0)
    assert again == []  # already resolved, not re-stamped
    assert oracle.true_ttl[0] == 2.0


def test_oracle_resolution_uses_old_or_new_value():
    oracle = TrueTtlOracle()
    oracle.on_serve(0, unit=1, lo=0.0, hi=1.0, now=0.0, action=5.0)
    oracle.on_serve(1, unit=2, lo=10.0, hi=11.0, now=0.0, action=5.0)
    hit = oracle.on_write(0.5, 10.5, 1.0)  # old hits serve 0, new hits serve 1
    assert sorted(hit) == [0, 1]


def test_oracle_shadow_flag():
    # a shadow resolution: the write comes after the entry's nominal expiry
    oracle = TrueTtlOracle()
    oracle.on_serve(0, unit=1, lo=0.0, hi=1.0, now=0.0, action=2.0)
    oracle.on_write(0.5, 99.0, 7.0)  # resolves well after the 2 s action
    assert oracle.true_ttl[0] == 7.0 and oracle.true_ttl[0] > oracle.actions[0]
    assert oracle.resolved_errors().tolist() == [-5.0]


def test_oracle_accessors():
    oracle = TrueTtlOracle()
    oracle.on_serve(0, unit=3, lo=0.0, hi=1.0, now=0.0, action=1.0)
    oracle.on_serve(1, unit=4, lo=5.0, hi=6.0, now=1.0, action=1.5)
    oracle.on_serve(2, unit=3, lo=7.0, hi=8.0, now=2.0, action=0.5)
    oracle.on_write(0.5, 7.5, 4.0)
    assert oracle.true_ttls().tolist() == [4.0, 2.0]
    assert oracle.resolved_errors().tolist() == [-3.0, -1.5]
    assert math.isnan(oracle.true_ttl[1])  # censored
    assert oracle.serves_of_unit(3) == [0, 2]
    assert oracle.serves_of_unit(4) == [1]
    assert oracle.serves_of_unit(99) == []
    assert oracle.records is oracle.actions


def test_oracle_rejects_out_of_order_serve_ids_and_changes_nothing():
    oracle = TrueTtlOracle()
    oracle.on_serve(0, unit=3, lo=0.0, hi=1.0, now=0.0, action=1.0)
    columns = (oracle.units, oracle.served_at, oracle.actions, oracle.true_ttl)
    before = [c.tobytes() for c in columns]
    for bad in (0, 2, -1):  # a repeat, a gap, and a negative id
        with pytest.raises(ValueError, match=f"serve id {bad} is not the next one, 1"):
            oracle.on_serve(bad, unit=4, lo=5.0, hi=6.0, now=1.0, action=1.0)
    assert [c.tobytes() for c in columns] == before
    assert oracle.pending_count == 1
    assert oracle.on_write(5.5, 99.0, 2.0) == []  # no range was added for it
    oracle.on_serve(1, unit=4, lo=5.0, hi=6.0, now=1.0, action=1.0)
    assert oracle.on_write(5.5, 99.0, 2.0) == [1]


def test_oracle_memory_per_resolved_serve():
    # Every serve is resolved by the write that follows it, so the range index
    # stays small and what remains is the four columns: 32 bytes a serve plus
    # the arrays' spare capacity.
    n = 100_000
    oracle = TrueTtlOracle()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for sid in range(n):
            lo = float(sid % 1000)
            oracle.on_serve(sid, sid % 50, lo, lo + 1.0, float(sid), 5.0)
            oracle.on_write(lo + 0.5, -1.0, sid + 0.5)
        used, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(oracle.resolved_errors()) == n and oracle.pending_count == 0
    per_serve = (used - base) / n
    assert per_serve <= 64, f"{per_serve:.1f} bytes per resolved serve"


def test_telemetry_facade_wiring():
    tel = Telemetry(window=20.0)
    tel.record_write(5, 1.0)
    tel.record_request(2, 1.0, miss=True)
    assert tel.write_counts([5, 6], 2.0).tolist() == [1, 0]
    assert tel.requests.miss_rate(2, 2.0) == 1.0
    assert tel.miss_rate_delta(2, 2.0) == 0.0
    assert tel.window == tel.writes.window == tel.requests.window == 20.0
    assert len(tel.oracle.actions) == 0
