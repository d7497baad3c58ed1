"""Event engine ordering, latency model, and whole-simulation behavior."""

from __future__ import annotations

import dataclasses
import gc
import heapq
import math
import weakref
from bisect import bisect_right
from itertools import chain, count, islice

import numpy as np
import pytest

from ttl_lab import benchcli
from ttl_lab.benchcli import CHECK_OVERRIDES, _query_trace_rows, run_experiment, run_single
from ttl_lab.cachesys import Lookup
from ttl_lab.config import build_config
from ttl_lab.estimators import TtlEstimator
from ttl_lab.simcore import Engine, LatencyModel, SimEvent, Simulation
from ttl_lab.telemetry import MissRateWindow, WindowCounter
from ttl_lab import workload
from ttl_lab.workload import arrival_chunks

# ---------------------------------------------------------------------------
# engine


def test_engine_dispatches_in_time_order():
    seen = []
    eng = Engine(lambda ev: seen.append(ev.kind))
    eng.schedule(3.0, "c", 0)
    eng.schedule(1.0, "a", 0)
    eng.schedule(2.0, "b", 0)
    assert eng.run_until(10.0) == 3
    assert seen == ["a", "b", "c"]
    assert eng.now == 10.0


def test_engine_same_time_is_fifo():
    seen = []
    eng = Engine(lambda ev: seen.append((ev.kind, ev.arg)))
    for arg, kind in enumerate(("first", "second", "third")):
        eng.schedule(5.0, kind, arg)
    eng.run_until(5.0)
    assert seen == [("first", 0), ("second", 1), ("third", 2)]
    assert eng.now == 5.0


def test_engine_rejects_scheduling_in_the_past():
    eng = Engine(lambda ev: None)
    eng.schedule(1.0, "x", 0)
    eng.run_until(2.0)
    with pytest.raises(ValueError, match="before now"):
        eng.schedule(1.5, "y", 0)
    with pytest.raises(ValueError, match="in the past"):
        eng.run_until(1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_engine_rejects_non_finite_times(bad):
    # A NaN at the heap head would compare false against every t_end and
    # silently stop all later dispatch.
    eng = Engine(lambda ev: None)
    eng.schedule(1.0, "x", 0)
    with pytest.raises(ValueError, match=f"at {bad}: not finite"):
        eng.schedule(bad, "y", 0)
    assert len(eng) == 1
    assert eng.run_until(10.0) == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_engine_rejects_a_non_finite_end(bad):
    eng = Engine(lambda ev: None)
    eng.schedule(1.0, "x", 0)
    with pytest.raises(ValueError, match=f"t_end {bad} is not finite"):
        eng.run_until(bad)
    assert eng.now == 0.0 and len(eng) == 1


def test_engine_run_until_is_inclusive():
    seen = []
    eng = Engine(lambda ev: seen.append(ev.time))
    eng.schedule(2.0, "x", 0)
    eng.schedule(2.0000001, "y", 0)
    eng.run_until(2.0)
    assert seen == [2.0]
    assert len(eng) == 1
    eng.run_until(2.0000001)
    assert seen == [2.0, 2.0000001]


def test_engine_ties_put_heap_events_before_ops():
    # A heap event at an op's time goes first, and so does an event that an
    # op schedules at its own time: it lands before the next op at that time.
    seen = []

    def on_op(t, op):
        seen.append((t, op))
        if op == "write":
            eng.schedule(t, "inval", 0)

    ops = [(1.0, "write"), (1.0, "read"), (2.0, "last")]
    eng = Engine(lambda ev: seen.append((ev.time, ev.kind)), ops, on_op)
    eng.schedule(1.0, "dei", 0)
    eng.schedule(2.0, "dei", 1)
    assert eng.run_until(2.0) == 6
    assert seen == [(1.0, "dei"), (1.0, "write"), (1.0, "inval"), (1.0, "read"),
                    (2.0, "dei"), (2.0, "last")]


class _HeapEngine:
    """The reference: every op is a heap event too, scheduled when its
    connection's previous op is dispatched. One heap keyed (time, 0 for an
    event or 1 for an op, scheduling counter) puts heap events before ops at
    equal times, each in scheduling order."""

    def __init__(self, handler):
        self.handler = handler
        self.now = 0.0
        self._heap: list[tuple] = []
        self._seq = 0

    def schedule(self, time: float, kind: str, arg: int) -> None:
        assert self.now <= time
        heapq.heappush(self._heap, (time, kind == "op", self._seq, SimEvent(time, self._seq, kind, arg)))
        self._seq += 1

    def run_until(self, t_end: float) -> int:
        n = 0
        while self._heap and self._heap[0][0] <= t_end:
            ev = heapq.heappop(self._heap)[-1]
            self.now = ev.time
            self.handler(ev)
            n += 1
        self.now = t_end
        return n


class _GridGaps:
    """A generator stand-in whose exponential(scale, size) draws are set gaps
    in units of scale, in order."""

    def __init__(self, gaps):
        self.gaps = iter(gaps)

    def exponential(self, scale, size):
        return scale * np.array([next(self.gaps) for _ in range(size)])


def _scripted_run(seed: int, engine_kind: str, stops=(7.0, 19.5, 40.0)) -> list[tuple]:
    """The dispatch log of a scripted run on a 0.5 s grid, where ties are the
    rule: each connection's gaps, and the events each op or event schedules
    (zero to two, 0 to 1.5 s ahead), come from the seed alone. The n-th op
    dispatched is logged as op n."""
    rng = np.random.default_rng(seed)
    conns = 4
    gaps = rng.choice([0.0, 0.5, 1.0, 1.5], size=(conns, 400), p=[0.1, 0.3, 0.3, 0.3])
    plans = rng.choice([0.0, 0.5, 1.0, 1.5], size=(4000, 2)).tolist()
    counts = rng.choice([0, 1, 2], size=4000, p=[0.4, 0.4, 0.2]).tolist()
    log: list[tuple] = []
    ids = iter(range(4000))

    def react(time, cause):
        # the k-th dispatch schedules counts[k] events
        k = len(log)
        log.append((time, *cause))
        for d in plans[k][: counts[k]]:
            eng.schedule(time + d, "inval" if k % 3 else "dei", next(ids))

    if engine_kind == "heap":
        next_gap = [iter(g.tolist()).__next__ for g in gaps]
        op_ids = count()

        def handler(ev):
            if ev.kind == "op":
                eng.schedule(ev.time + next_gap[ev.arg](), "op", ev.arg)
                react(ev.time, ("op", next(op_ids)))
            else:
                react(ev.time, (ev.kind, ev.arg))

        eng = _HeapEngine(handler)
        for conn in range(conns):
            eng.schedule(next_gap[conn](), "op", conn)
    else:
        arrivals = arrival_chunks([_GridGaps(g.tolist()) for g in gaps], 1.0)
        timeline = zip(chain.from_iterable(arrivals), count())
        eng = Engine(lambda ev: react(ev.time, (ev.kind, ev.arg)), timeline,
                     lambda t, op: react(t, ("op", op)))
    for stop in stops:
        eng.run_until(stop)
        assert eng.now == stop
    return log


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_engine_matches_heap_only_reference(seed, monkeypatch):
    # Ops walked from a timeline must dispatch where one heap of ops and
    # events puts them when ties go to events first.
    # Blocks of 8 gaps, about 7 s per connection, end chunks all through the run.
    monkeypatch.setattr(workload, "_GAP_BLOCK", 8)
    ref = _scripted_run(seed, "heap")
    assert _scripted_run(seed, "timeline") == ref
    assert len(ref) > 300

    # The script makes every kind of tie happen, so an engine that put a tied
    # op first, or dropped an op or an event at a chunk's end or a stop, would
    # not match.
    def tied(i, *kinds):
        run = ref[i : i + len(kinds)]
        return len(run) == len(kinds) and len({r[0] for r in run}) == 1 and all(
            (r[1] == "op") == (k == "op") for r, k in zip(run, kinds))

    assert any(tied(i, "op", "event") for i in range(len(ref)))
    assert any(tied(i, "event", "op") for i in range(len(ref)))
    # an event scheduled by a tied op, with no delay, goes before the next op
    assert any(tied(i, "op", "event", "op") for i in range(len(ref)))
    assert any(tied(i, "op", "op") for i in range(len(ref)))


def _stepped_log(stops) -> list[tuple]:
    """The dispatch log of one op per ms for 10 s, where every seventh op
    schedules an event 0.25 ms later, run to each of `stops` in turn."""
    log: list[tuple] = []

    def on_op(t, op):
        log.append((t, op))
        if op % 7 == 0:
            eng.schedule(t + 0.00025, "inval", op)

    timeline = (((i + 1) * 0.001, i) for i in range(10_000))
    eng = Engine(lambda ev: log.append((ev.time, ev.kind, ev.arg)), timeline, on_op)
    for stop in stops:
        eng.run_until(stop)
    return log


def test_engine_run_until_in_steps_matches_one_call():
    # Each call keeps the first op past its end for the next; 20,000 calls
    # must neither lose nor repeat an op, nor reorder one with an event.
    stepped = _stepped_log([k * 0.0005 for k in range(1, 20_001)])
    assert stepped == _stepped_log([10.0])
    assert len(stepped) == 10_000 + 1_429


def test_engine_handler_can_schedule_more():
    seen = []

    def handler(ev: SimEvent):
        seen.append(ev.time)
        if ev.time < 3.0:
            eng.schedule(ev.time + 1.0, "tick", 0)

    eng = Engine(handler)
    eng.schedule(1.0, "tick", 0)
    eng.run_until(10.0)
    assert seen == [1.0, 2.0, 3.0]


# ---------------------------------------------------------------------------
# latency model


def test_latency_model_defaults():
    lat = LatencyModel()
    assert lat.hit_latency == 0.004
    assert lat.miss_latency == 0.154  # 4 ms edge + 150 ms origin, exact
    assert lat.invalidation_delay == 0.002


def test_latency_model_rejects_negative():
    with pytest.raises(ValueError, match="non-negative"):
        LatencyModel(edge_rtt_ms=-1.0)


# ---------------------------------------------------------------------------
# simulation


def _build_sim(cfg, seed=5, trace=None):
    cfg = dataclasses.replace(cfg, fixed_ttl=5.0)
    return Simulation(cfg, 0.1, "fixed", seed, trace_writer=trace)


def test_unit_namespace_mapping(tiny_cfg):
    rows = []
    sim = _build_sim(tiny_cfg, trace=rows.append)
    for op in (("query", 7, math.nan), ("read", 7, math.nan), ("update", 0, 0.5)):
        sim._handle_arrival(1.0, op)
    assert [r[2] for r in rows] == [7, tiny_cfg.workload.query_count + 7,
                                    tiny_cfg.workload.query_count]


def test_simulation_trace_and_latencies(tiny_cfg):
    rows = []
    sim = _build_sim(tiny_cfg, trace=rows.append)
    sim.run()
    assert rows, "no trace rows written"
    kinds = {r[1] for r in rows}
    assert kinds <= {"query", "read", "update"}
    for now, kind, unit, outcome, lat in rows:
        assert 0.0 < now <= 30.0
        if kind == "update":
            assert outcome == "write" and lat == 0.154
            assert unit >= tiny_cfg.workload.query_count
        elif outcome == "miss":
            assert lat == 0.154
        else:
            assert outcome in ("hit", "stale_hit") and lat == 0.004
    times = [r[0] for r in rows]
    assert times == sorted(times)
    assert len(rows) == sim.op_arrivals


def test_simulation_throughput_and_latency_bounds(tiny_cfg):
    res, sim = run_single(tiny_cfg, 0.1, "fixed", seed=3)
    # 30 s x 120 ops/s -> Poisson(3600); 4 sigma is ~6.7%
    assert res.achieved_throughput == pytest.approx(120.0, rel=0.1)
    assert res.achieved_throughput == sim.op_arrivals / 30.0
    assert 0.004 <= res.mean_latency <= 0.154


def test_simulation_accounting_identities(tiny_cfg):
    rows = []
    res, sim = run_single(tiny_cfg, 0.1, "fixed", seed=11, trace_writer=rows.append)
    stats = sim.cache.stats
    assert len(rows) == sim.op_arrivals
    assert stats.requests == sum(kind != "update" for _, kind, *_ in rows)
    assert stats.inserts == stats.misses  # every miss fills the cache
    assert stats.hits == res.hits and stats.misses == res.misses
    assert 0.0 <= res.hit_rate <= 1.0
    assert 0.0 <= res.invalidation_rate <= 1.0
    assert len(sim.telemetry.oracle.actions) == stats.inserts
    sim.cache.check_invariants()


def test_simulation_determinism_same_seed(tiny_cfg):
    def signature(seed):
        res, sim = run_single(tiny_cfg, 0.1, "naf-dei", seed)
        return (res.hits, res.misses, res.invalidations, res.truncated_rmse,
                res.mean_latency, sim.op_arrivals)

    assert signature(42) == signature(42)
    assert signature(42) != signature(43)


def test_desk_poisson_counts_are_pinned():
    # Every count of one desk run (w 0.1, 300 s, seed 1), pinned: a change to
    # op or arrival generation, the event order, the cache, the oracle or the
    # Poisson TTL moves at least one of them. Poisson TTLs are sums and
    # divisions of window counts, so no BLAS result enters these numbers.
    res, sim = run_single(build_config("desk"), 0.1, "poisson", seed=1)
    counts = {f: getattr(res, f) for f in (
        "hits", "misses", "inserts", "invalidations", "stale_reads",
        "evictions", "expirations", "resolved", "censored")}
    assert counts == {
        "hits": 43_909, "misses": 10_021, "inserts": 10_021, "invalidations": 7_960,
        "stale_reads": 17, "evictions": 499, "expirations": 1_417,
        "resolved": 9_830, "censored": 191,
    }
    assert sim.op_arrivals == 59_842


def test_estimator_rng_does_not_perturb_workload(tiny_cfg):
    # Policy noise draws from its own RNG stream, so the op sequence (time,
    # kind and unit of every arrival) and the world's mutation history are
    # identical across estimators.
    rows_a, rows_b = [], []
    res_a, sim_a = run_single(tiny_cfg, 0.1, "fixed", seed=7, trace_writer=rows_a.append)
    res_b, sim_b = run_single(tiny_cfg, 0.1, "naf-dei", seed=7, trace_writer=rows_b.append)
    assert [r[:3] for r in rows_a] == [r[:3] for r in rows_b]
    assert sim_a.op_arrivals == sim_b.op_arrivals == len(rows_a)
    assert np.array_equal(sim_a.world.values, sim_b.world.values)
    assert res_a.hit_rate != res_b.hit_rate  # but the policies did differ


def test_unknown_event_kind_raises(tiny_cfg):
    sim = _build_sim(tiny_cfg)
    sim.engine.schedule(0.5, "bogus", 0)
    with pytest.raises(RuntimeError, match="unknown event kind"):
        sim.engine.run_until(1.0)


def test_hottest_missed_query_tiebreak(tiny_cfg):
    # --trace-query auto traces the query unit with the most misses; each miss
    # is one serve, so the misses are counted from the oracle.
    qc = tiny_cfg.workload.query_count

    def hottest(misses):
        sim = _build_sim(tiny_cfg)
        oracle = sim.telemetry.oracle
        for sid, unit in enumerate(u for u, n in misses.items() for _ in range(n)):
            oracle.on_serve(sid, unit, float(sid), 1.0)
        rows = _query_trace_rows(sim, "auto")
        unit = rows[0][0] if rows else None
        assert [row[:2] for row in rows] == [(unit, i) for i in range(misses.get(unit, 0))]
        return unit

    assert hottest({3: 5, 1: 5, 2: 4, qc + 9: 99}) == 1  # reads never win
    assert hottest({qc + 9: 99}) is None
    assert hottest({}) is None


def test_stale_reads_happen_under_writes(tiny_cfg):
    # A lookup that lands between a write and its purge, 2 ms later by
    # default, serves the doomed entry as a stale read; with no delay there
    # is no such window.
    instant = dataclasses.replace(
        tiny_cfg, latency=dataclasses.replace(tiny_cfg.latency, invalidation_delay_ms=0.0))
    for seed in (2, 3):
        trace = []
        res, _ = run_single(tiny_cfg, 0.1, "fixed", seed, trace_writer=trace.append)
        assert 0 < res.invalidations <= res.inserts
        assert res.stale_reads > 0
        assert res.stale_reads == sum(row[3] == "stale_hit" for row in trace)
        assert run_single(instant, 0.1, "fixed", seed)[0].stale_reads == 0


@pytest.mark.parametrize("preset", ["desk", "paper"])
def test_arrival_gaps_equal_per_call_draws(tiny_cfg, preset):
    # A run's timeline must be ascending and hold exactly the running sums
    # of one exponential() call per arrival on each connection's own
    # generator, up to the last time taken; the n-th arrival carries the n-th
    # op of the op stream. The generators are those of the spawn tree the
    # run's streams are named after: the OPS-th of SeedSequence(seed).spawn(4),
    # and the ARRIVALS-th one's spawn(CONNECTIONS). A round of the merge gives
    # at most one block of gaps per connection, so n arrivals take 20 rounds
    # or more, by when the connections have drifted more than a block apart.
    throughput = build_config(preset).workload.target_throughput  # 200/s and 1,000/s
    spec, seed = dataclasses.replace(tiny_cfg.workload, target_throughput=throughput), 3
    mean_gap = workload.CONNECTIONS / spec.target_throughput
    n = 20 * workload.CONNECTIONS * workload._GAP_BLOCK
    got, ops = zip(*islice(workload.op_timeline(spec, seed), n))
    got = list(got)
    assert len(got) == n and got == sorted(got)
    roles = np.random.SeedSequence(seed).spawn(4)
    ref, per_conn = [], []
    for conn in roles[workload.ARRIVALS].spawn(workload.CONNECTIONS):
        rng, now, k = np.random.default_rng(conn), 0.0, 0
        while (now := now + float(rng.exponential(mean_gap))) <= got[-1]:
            ref.append(now)
            k += 1
        per_conn.append(k)
    assert got == sorted(ref)
    assert max(per_conn) - min(per_conn) > workload._GAP_BLOCK
    want = list(islice(workload.op_stream(spec, np.random.default_rng(roles[workload.OPS])), n))
    assert [op[:2] for op in ops] == [op[:2] for op in want]
    np.testing.assert_array_equal([op[2] for op in ops], [op[2] for op in want])  # NaN == NaN


def test_short_desk_counts_are_pinned():
    # The integer counts of 60 s desk runs at seed 1, recorded before ops had a
    # precomputed timeline. Neither estimator runs a learner, so no BLAS result
    # enters them.
    cfg = build_config("desk", overrides={"workload.duration": "60", "estimator.kind": "fixed,poisson"})
    counts = {}
    for kind in ("fixed", "poisson"):
        res, sim = run_single(cfg, 0.1, kind, seed=1)
        counts[kind] = (sim.op_arrivals, res.hits, res.misses, res.inserts, res.invalidations,
                        res.stale_reads, res.resolved)
    assert counts == {
        "fixed": (11_994, 8_840, 1_965, 1_965, 1_598, 2, 1_780),
        "poisson": (11_994, 8_845, 1_960, 1_960, 1_563, 2, 1_793),
    }


def test_short_desk_counts_with_point_reads_are_pinned():
    # No preset simulates point reads (each has query_fraction = 1 - w), so
    # this pins the integer counts of 60 s desk runs at seed 1 with 30% reads
    # (w 0.2, query_fraction 0.5), recorded while a read's serve still waited
    # in a range index as [v, nextafter(v)).
    cfg = build_config("desk", overrides={
        "workload.duration": "60", "workload.write_fraction": "0.2",
        "workload.query_fraction": "0.5", "estimator.kind": "fixed,poisson"})
    counts = {}
    for kind in ("fixed", "poisson"):
        res, sim = run_single(cfg, 0.2, kind, seed=1)
        counts[kind] = (sim.op_arrivals, res.hits, res.misses, res.inserts, res.invalidations,
                        res.stale_reads, res.resolved)
    assert counts == {
        "fixed": (11_994, 3_081, 6_541, 6_541, 1_737, 1, 4_586),
        "poisson": (11_994, 570, 9_052, 9_052, 223, 0, 7_005),
    }


@pytest.mark.parametrize("w, kind, extra", [
    (0.1, "poisson", {}),
    (0.2, "fixed", {"workload.duration": "120", "workload.query_fraction": "0.5"}),
], ids=["desk-poisson", "desk-point-reads"])
def test_a_seed_replays_every_true_ttl_with_no_cache(w, kind, extra):
    # The hindsight pre-pass: the seed's world, its op timeline and the
    # world's write rule alone, with no cache, estimator or engine, give each
    # unit's write-touch times; every serve's true TTL is then its unit's next
    # touch after the serve, less the serve time, or NaN with none in the run.
    cfg = build_config("desk", overrides={"workload.write_fraction": str(w),
                                          "estimator.kind": kind, **extra})
    seed = 4
    sim = Simulation(cfg, w, kind, seed).run()
    spec = cfg.workload_spec(w)
    world = workload.generate_world(spec, workload.run_stream(seed, workload.WORLD))
    touches: dict[int, list[float]] = {}
    for t, (op_kind, key, new) in workload.op_timeline(spec, seed):
        if t > spec.duration:
            break
        if op_kind == "update":
            for unit in world.write(key, new):
                touches.setdefault(unit, []).append(t)
    oracle = sim.telemetry.oracle
    assert len(oracle.units) > 5_000
    want = []
    for unit, served_at in zip(oracle.units, oracle.served_at):
        times = touches.get(unit, [])
        i = bisect_right(times, served_at)
        want.append(times[i] - served_at if i < len(times) else math.nan)
    np.testing.assert_array_equal(np.array(oracle.true_ttl), want)  # NaN == NaN
    assert np.array_equal(world.values, sim.world.values)


def test_pending_naf_decision_keeps_its_result_keys(tiny_cfg):
    # A NAF-DEI decision rebuilds its next state from the result keys it was
    # decided on, so writes that move keys into and out of the query's result
    # before the decision comes due must not change them.
    sim = Simulation(tiny_cfg, 0.1, "naf-dei", seed=5)
    index, values = sim.world.index, sim.world.values
    q = max(range(len(index.results)), key=lambda i: len(index.results[i]))
    _, lo, hi = sim.world.queries[q]
    decided_on = list(index.results[q])
    sim._handle_arrival(1.0, ("query", q, math.nan))
    outsider = next(k for k in range(len(values)) if not lo <= values[k] < hi)
    sim._handle_arrival(1.5, ("update", outsider, lo))
    sim._handle_arrival(2.0, ("update", decided_on[0], hi))
    assert index.results[q] == sorted([*decided_on[1:], outsider])
    assert sim.estimator.queue.pop_due(0).result_keys == decided_on


def test_a_read_is_resolved_by_writes_of_its_own_record_alone(tiny_cfg):
    # A point read of key k depends on k's record: a write of another record
    # onto k's exact value leaves it valid, and a write of k resolves it.
    sim = _build_sim(tiny_cfg)
    values, qc = sim.world.values, tiny_cfg.workload.query_count
    k, other = 3, 4
    v = float(values[k])
    sim._handle_arrival(1.0, ("read", k, math.nan))
    sim._handle_arrival(1.5, ("update", other, v))
    assert math.isnan(sim.telemetry.oracle.true_ttl[0])
    assert sim.cache.lookup(qc + k, 1.501) is Lookup.HIT and len(sim.engine) == 0
    sim._handle_arrival(2.0, ("update", k, v + 1.0))
    assert sim.telemetry.oracle.true_ttl[0] == 1.0
    assert sim.cache.lookup(qc + k, 2.001) is Lookup.STALE_HIT  # marked, purge in flight
    assert len(sim.engine) == 1


def test_write_onto_a_read_value_resolves_the_read(tiny_cfg):
    # A point read of key k depends on k's record, so a write of k resolves
    # it even when it puts k's own value v back; a write of another key next
    # to v does not.
    sim = _build_sim(tiny_cfg)
    values, qc = sim.world.values, tiny_cfg.workload.query_count
    k, other = 3, 4
    v = float(values[k])
    sim._handle_arrival(1.0, ("read", k, math.nan))
    sim._handle_arrival(1.5, ("update", other, math.nextafter(v, math.inf)))  # next to v: no effect
    assert math.isnan(sim.telemetry.oracle.true_ttl[0])
    sim._handle_arrival(2.0, ("update", k, v))
    assert sim.telemetry.oracle.true_ttl[0] == 1.0
    assert sim.cache.lookup(qc + k, 2.001) is Lookup.STALE_HIT  # marked, purge in flight
    assert len(sim.engine) == 1


def test_learner_window_counts_every_request_and_miss(tiny_cfg):
    # The learner's window is longer than the run, so no request has left it:
    # its requests and misses, summed over units, are the cache's.
    cfg = dataclasses.replace(tiny_cfg, telemetry_window=2 * tiny_cfg.workload.duration)
    sim = Simulation(cfg, 0.1, "naf-dei", seed=5).run()
    spec, stats, window = sim.spec, sim.cache.stats, sim.estimator.miss_rates
    units = range(spec.query_count + spec.record_count)
    assert stats.misses > 0 and stats.hits > 0
    assert sum(window.requests.counts(units, spec.duration)) == stats.requests
    assert sum(window.misses.counts(units, spec.duration)) == stats.misses


def test_poisson_estimator_holds_no_request_window(tiny_cfg):
    sim = Simulation(tiny_cfg, 0.1, "poisson", seed=5)
    assert type(sim.estimator).on_request is TtlEstimator.on_request  # the no-op
    held = [*vars(sim.estimator).values(), *vars(sim.telemetry).values()]
    assert not any(isinstance(v, MissRateWindow) for v in held)
    assert [v for v in held if isinstance(v, WindowCounter)] == [sim.telemetry.writes]


# ---------------------------------------------------------------------------
# the run's lifecycle: with the cyclic collector off, what reference counting
# frees is all that goes


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ["naf-dei", "poisson"])
def test_a_finished_simulation_is_freed_by_reference_counting(kind, no_cyclic_gc):
    # 20 desk seconds: the naf-dei learner trains and injects transitions
    cfg = build_config("desk", overrides={"estimator.kind": kind, "workload.duration": "20"})
    sim = Simulation(cfg, 0.1, kind, 1).run()
    assert sim.completed > 0
    refs = [weakref.ref(obj) for obj in (sim, sim.engine, sim.estimator, sim.telemetry, sim.cache)]
    del sim
    assert [r() for r in refs] == [None] * len(refs)


def test_a_simulation_that_raises_is_freed_too(tiny_cfg, no_cyclic_gc):
    sim = Simulation(tiny_cfg, 0.1, "poisson", 1)
    assert sim.engine.handler == sim._dispatch  # what a run's observers read when it starts
    sim.engine.schedule(0.5, "bogus", 0)
    try:  # no `as`: an exception kept by name holds the run's frames
        sim.run()
    except RuntimeError:
        pass
    else:
        pytest.fail("the bogus event did not raise")
    assert sim.engine.handler is None
    ref = weakref.ref(sim)
    del sim
    assert ref() is None


def test_run_experiment_holds_one_simulation_at_a_time(tmp_path, monkeypatch, no_cyclic_gc):
    built: list[weakref.ref] = []
    alive_at_build: list[int] = []

    class Observed(Simulation):
        def __init__(self, *args, **kwargs):
            alive_at_build.append(sum(r() is not None for r in built))
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    monkeypatch.setattr(benchcli, "Simulation", Observed)
    cfg = build_config(overrides={**CHECK_OVERRIDES, "estimator.kind": "poisson,naf-dei",
                                  "bench.runs": "2", "bench.replay_log": "true"})
    run_experiment(cfg, tmp_path, echo=lambda *a: None)
    assert alive_at_build == [0, 0, 0, 0]
    assert [r() for r in built] == [None] * 4
