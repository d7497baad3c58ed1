"""Event engine ordering, latency model, and whole-simulation behavior."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from ttl_lab.benchcli import run_single
from ttl_lab.estimators import FixedEstimator
from ttl_lab.simcore import _GAP_BLOCK, Engine, LatencyModel, SimEvent, Simulation

# ---------------------------------------------------------------------------
# engine


def test_engine_dispatches_in_time_order():
    seen = []
    eng = Engine(lambda ev: seen.append(ev.kind))
    eng.schedule(3.0, "c")
    eng.schedule(1.0, "a")
    eng.schedule(2.0, "b")
    assert eng.run_until(10.0) == 3
    assert seen == ["a", "b", "c"]
    assert eng.now == 10.0
    assert eng.dispatched == 3


def test_engine_same_time_is_fifo():
    seen = []
    eng = Engine(lambda ev: seen.append(ev.kind))
    for kind in ("first", "second", "third"):
        eng.schedule(5.0, kind)
    eng.run_until(5.0)
    assert seen == ["first", "second", "third"]
    assert eng.now == 5.0


def test_engine_rejects_scheduling_in_the_past():
    eng = Engine(lambda ev: None)
    eng.schedule(1.0, "x")
    eng.run_until(2.0)
    with pytest.raises(ValueError, match="before now"):
        eng.schedule(1.5, "y")
    with pytest.raises(ValueError, match="in the past"):
        eng.run_until(1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_engine_rejects_non_finite_times(bad):
    # A NaN at the heap head would compare false against every t_end and
    # silently stop all later dispatch.
    eng = Engine(lambda ev: None)
    eng.schedule(1.0, "x")
    with pytest.raises(ValueError, match=f"at {bad}: not finite"):
        eng.schedule(bad, "y")
    assert len(eng) == 1 and eng.peek_time() == 1.0
    assert eng.run_until(10.0) == 1


def test_engine_run_until_is_inclusive():
    seen = []
    eng = Engine(lambda ev: seen.append(ev.time))
    eng.schedule(2.0, "x")
    eng.schedule(2.0000001, "y")
    eng.run_until(2.0)
    assert seen == [2.0]
    assert eng.peek_time() == 2.0000001
    assert len(eng) == 1


def test_engine_handler_can_schedule_more():
    seen = []

    def handler(ev: SimEvent):
        seen.append(ev.time)
        if ev.time < 3.0:
            eng.schedule(ev.time + 1.0, "tick")

    eng = Engine(handler)
    eng.schedule(1.0, "tick")
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
    sim = Simulation(cfg.workload_spec(0.1), cfg.latency, cfg.capacity,
                     seed, cfg.telemetry_window, trace_writer=trace)
    sim.attach(FixedEstimator(5.0))
    return sim


def test_simulation_requires_estimator(tiny_cfg):
    sim = Simulation(tiny_cfg.workload_spec(0.1), tiny_cfg.latency,
                     tiny_cfg.capacity, seed=1, telemetry_window=tiny_cfg.telemetry_window)
    with pytest.raises(RuntimeError, match="estimator"):
        sim.run()


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
    res, sim, _ = run_single(tiny_cfg, 0.1, "fixed", seed=3)
    # 30 s x 120 ops/s -> Poisson(3600); 4 sigma is ~6.7%
    assert res.achieved_throughput == pytest.approx(120.0, rel=0.1)
    assert 0.004 <= res.mean_latency <= 0.154
    assert sim.op_counts["read"] + sim.op_counts["query"] + sim.op_counts["update"] \
        == sim.op_arrivals


def test_simulation_accounting_identities(tiny_cfg):
    res, sim, _ = run_single(tiny_cfg, 0.1, "fixed", seed=11)
    stats = sim.cache.stats
    assert stats.requests == sim.op_counts["read"] + sim.op_counts["query"]
    assert stats.inserts == stats.misses  # every miss fills the cache
    assert stats.hits == res.hits and stats.misses == res.misses
    assert 0.0 <= res.hit_rate <= 1.0
    assert 0.0 <= res.invalidation_rate <= 1.0
    assert len(sim.telemetry.oracle.actions) == stats.inserts
    sim.cache.check_invariants()


def test_simulation_determinism_same_seed(tiny_cfg):
    def signature(seed):
        res, sim, _ = run_single(tiny_cfg, 0.1, "naf-dei", seed)
        return (res.hits, res.misses, res.invalidations, res.truncated_rmse,
                res.mean_latency, sim.engine.dispatched)

    assert signature(42) == signature(42)
    assert signature(42) != signature(43)


def test_estimator_rng_does_not_perturb_workload(tiny_cfg):
    # Policy noise draws from its own RNG stream, so the op mixture, arrival
    # times and the world's mutation history are identical across estimators.
    res_a, sim_a, _ = run_single(tiny_cfg, 0.1, "fixed", seed=7)
    res_b, sim_b, _ = run_single(tiny_cfg, 0.1, "naf-dei", seed=7)
    assert sim_a.op_counts == sim_b.op_counts
    assert sim_a.op_arrivals == sim_b.op_arrivals
    assert np.array_equal(sim_a.world.values, sim_b.world.values)
    assert res_a.hit_rate != res_b.hit_rate  # but the policies did differ


def test_unknown_event_kind_raises(tiny_cfg):
    sim = _build_sim(tiny_cfg)
    sim.engine.schedule(0.5, "bogus")
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
    instant = dataclasses.replace(
        tiny_cfg, latency=dataclasses.replace(tiny_cfg.latency, invalidation_delay_ms=0.0))
    for seed in (2, 3):
        trace = []
        res, _, _ = run_single(tiny_cfg, 0.1, "fixed", seed, trace_writer=trace.append)
        assert 0 < res.invalidations <= res.inserts
        assert res.stale_reads > 0
        assert res.stale_reads == sum(row[3] == "stale_hit" for row in trace)
        assert run_single(instant, 0.1, "fixed", seed)[0].stale_reads == 0


def test_arrival_gaps_equal_per_call_draws(tiny_cfg):
    # Each connection's gaps come in blocks; across block boundaries they must
    # be the values of one exponential() call per arrival on its own generator.
    spec = tiny_cfg.workload_spec(0.1)
    sim = Simulation(spec, tiny_cfg.latency, tiny_cfg.capacity, seed=4,
                     telemetry_window=tiny_cfg.telemetry_window)
    arrivals = np.random.SeedSequence(4).spawn(4)[2].spawn(spec.connections)
    n = 3 * _GAP_BLOCK + 7
    for conn in (0, 1, 17, spec.connections - 1):
        rng = np.random.default_rng(arrivals[conn])
        ref = [float(rng.exponential(sim.mean_gap)) for _ in range(n)]
        assert [sim._next_gap[conn]() for _ in range(n)] == ref
