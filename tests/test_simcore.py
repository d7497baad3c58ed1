"""Event engine ordering, latency model, and whole-simulation behavior."""

from __future__ import annotations

import dataclasses
import heapq
from collections import defaultdict
from itertools import chain

import numpy as np
import pytest

from ttl_lab.benchcli import run_single
from ttl_lab.config import build_config
from ttl_lab.simcore import Engine, LatencyModel, SimEvent, Simulation
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


class _HeapEngine:
    """The reference: every op is a heap event too, and dispatching an op
    schedules its connection's next arrival first."""

    def __init__(self, handler):
        self.handler = handler
        self.now = 0.0
        self._heap: list[SimEvent] = []
        self._seq = 0

    def schedule(self, time: float, kind: str, arg: int) -> None:
        assert self.now <= time
        heapq.heappush(self._heap, SimEvent(time, self._seq, kind, arg))
        self._seq += 1

    def run_until(self, t_end: float) -> int:
        n = 0
        while self._heap and self._heap[0].time <= t_end:
            ev = heapq.heappop(self._heap)
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
    (zero to two, 0 to 1.5 s ahead), come from the seed alone."""
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

        def handler(ev):
            if ev.kind == "op":
                eng.schedule(ev.time + next_gap[ev.arg](), "op", ev.arg)
                react(ev.time, ("op", ev.arg))
            else:
                react(ev.time, (ev.kind, ev.arg))

        eng = _HeapEngine(handler)
        for conn in range(conns):
            eng.schedule(next_gap[conn](), "op", conn)
    else:
        arrivals = arrival_chunks([_GridGaps(g.tolist()) for g in gaps], 1.0)
        timeline = chain.from_iterable(zip(t, c, c) for t, c in arrivals)
        eng = Engine(lambda ev: react(ev.time, (ev.kind, ev.arg)), timeline,
                     lambda t, conn: react(t, ("op", conn)), conns)
    for stop in stops:
        eng.run_until(stop)
        assert eng.now == stop
    return log


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_engine_matches_heap_only_reference(seed, monkeypatch):
    # Ops walked from a timeline must dispatch where the heap put them when
    # each op was a heap event: ties among ops and with heap events go by
    # sequence number, an op's being the counter at its predecessor's dispatch.
    # The smallest chunks, 16 arrivals per connection, end every 16 s.
    monkeypatch.setattr(workload, "_ARRIVAL_CHUNK", 0)
    ref = _scripted_run(seed, "heap")
    assert _scripted_run(seed, "timeline") == ref
    assert len(ref) > 300

    # The script makes every tie order happen, so an engine that orders ops and
    # events by time alone, either way round, or ties among ops by connection,
    # would not match.
    def tied(i, *kinds):
        run = ref[i : i + len(kinds)]
        return len(run) == len(kinds) and len({r[0] for r in run}) == 1 and all(
            (r[1] == "op") == (k == "op") for r, k in zip(run, kinds))

    assert any(tied(i, "op", "event") for i in range(len(ref)))
    assert any(tied(i, "event", "op") for i in range(len(ref)))
    assert any(tied(i, "op", "event", "op") and ref[i][2] != ref[i + 2][2] for i in range(len(ref)))
    assert any(tied(i, "op", "op") and ref[i][2] > ref[i + 1][2] for i in range(len(ref)))


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
    cfg = dataclasses.replace(cfg, estimators=("fixed",), fixed_ttl=5.0)
    return Simulation(cfg, 0.1, "fixed", seed, trace_writer=trace)


def _with_kinds(cfg, *kinds):
    return dataclasses.replace(cfg, estimators=kinds)


def test_unit_namespace_mapping(tiny_cfg):
    sim = _build_sim(tiny_cfg)
    assert sim.unit_for("query", 7) == 7
    assert sim.unit_for("read", 7) == tiny_cfg.workload.query_count + 7
    assert sim.unit_for("update", 0) == tiny_cfg.workload.query_count


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
    res, sim = run_single(_with_kinds(tiny_cfg, "fixed"), 0.1, "fixed", seed=3)
    # 30 s x 120 ops/s -> Poisson(3600); 4 sigma is ~6.7%
    assert res.achieved_throughput == pytest.approx(120.0, rel=0.1)
    assert res.achieved_throughput == sim.op_arrivals / 30.0
    assert 0.004 <= res.mean_latency <= 0.154


def test_simulation_accounting_identities(tiny_cfg):
    rows = []
    res, sim = run_single(_with_kinds(tiny_cfg, "fixed"), 0.1, "fixed", seed=11, trace_writer=rows.append)
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
    cfg = _with_kinds(tiny_cfg, "fixed", "naf-dei")
    res_a, sim_a = run_single(cfg, 0.1, "fixed", seed=7, trace_writer=rows_a.append)
    res_b, sim_b = run_single(cfg, 0.1, "naf-dei", seed=7, trace_writer=rows_b.append)
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
    # Each miss is one serve, so the misses are counted from the oracle.
    qc = tiny_cfg.workload.query_count

    def hottest(misses):
        sim = _build_sim(tiny_cfg)
        oracle = sim.telemetry.oracle
        for sid, unit in enumerate(u for u, n in misses.items() for _ in range(n)):
            oracle.on_serve(sid, unit, 0.0, 1.0, float(sid), 1.0)
        return sim.hottest_missed_query()

    assert hottest({3: 5, 1: 5, 2: 4, qc + 9: 99}) == 1  # reads never win
    assert hottest({qc + 9: 99}) is None
    assert hottest({}) is None


def test_stale_reads_happen_under_writes(tiny_cfg):
    # A lookup that lands between a write and its purge, 2 ms later by
    # default, serves the doomed entry as a stale read; with no delay there
    # is no such window.
    cfg = _with_kinds(tiny_cfg, "fixed")
    instant = dataclasses.replace(
        cfg, latency=dataclasses.replace(cfg.latency, invalidation_delay_ms=0.0))
    for seed in (2, 3):
        trace = []
        res, _ = run_single(cfg, 0.1, "fixed", seed, trace_writer=trace.append)
        assert 0 < res.invalidations <= res.inserts
        assert res.stale_reads > 0
        assert res.stale_reads == sum(row[3] == "stale_hit" for row in trace)
        assert run_single(instant, 0.1, "fixed", seed)[0].stale_reads == 0


def test_arrival_gaps_equal_per_call_draws(tiny_cfg):
    # Each connection's arrival times, merged a chunk at a time, must be the
    # running sums of one exponential() call per arrival on its own generator.
    spec = tiny_cfg.workload
    mean_gap = spec.connections / spec.target_throughput
    seeds = np.random.SeedSequence(4).spawn(4)[2].spawn(spec.connections)
    chunks = arrival_chunks([np.random.default_rng(s) for s in seeds], mean_gap)
    got, last, sizes = defaultdict(list), 0.0, []
    for times, conns in (next(chunks) for _ in range(6)):
        assert times[0] >= last and times == sorted(times)
        last = times[-1]
        sizes.append(len(times))
        for t, conn in zip(times, conns):
            got[conn].append(t)
    assert len(got) == spec.connections and min(sizes) > 500
    for conn, times in got.items():
        rng, now, ref = np.random.default_rng(seeds[conn]), 0.0, []
        for _ in times:
            now = now + float(rng.exponential(mean_gap))
            ref.append(now)
        assert times == ref


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


def test_simulation_rejects_a_kind_outside_the_grid():
    # ExperimentConfig checks an estimator's option only when its kind is in
    # cfg.estimators, so a simulation of any other kind would run unchecked.
    cfg = dataclasses.replace(build_config(overrides={"estimator.kind": "poisson"}), fixed_ttl=0.0)
    with pytest.raises(ValueError, match=r"estimator 'fixed' is not in cfg.estimators \('poisson',\)"):
        Simulation(cfg, 0.1, "fixed", 1)
