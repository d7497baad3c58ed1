"""Acceptance gate: eleven numbered criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict line.
Each test prints its line before asserting, and the line is repeated in the
assertion message, so failures are self-describing in captured mode too.

Criteria 01, 02, 03 and 07 call the benchcli functions `ttl-lab check` runs.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest
import scipy.stats

from ttl_lab.benchcli import (
    check_determinism,
    check_gradients,
    check_naf_identities,
    check_poisson_exact,
    run_experiment,
    run_single,
)
from ttl_lab.cachesys import CacheSystem
from ttl_lab.config import build_config
from ttl_lab.simcore import Simulation
from ttl_lab.telemetry import TrueTtlOracle
from ttl_lab.workload import WorkloadSpec, ZipfSampler, generate_world, read_range


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. closed-form TTLs are exact


def test_criterion_01_poisson_exact():
    _verdict(1, "poisson closed form exact", *check_poisson_exact())


# ---------------------------------------------------------------------------
# 2. the advantage head never prefers an off-policy action


def test_criterion_02_naf_identities():
    _verdict(2, "naf identities", *check_naf_identities())


# ---------------------------------------------------------------------------
# 3. analytic gradients match central finite differences


def test_criterion_03_gradient_check():
    _verdict(3, "gradients vs finite differences", *check_gradients())


# ---------------------------------------------------------------------------
# 4. the hindsight oracle agrees with a brute-force replay


def test_criterion_04_oracle_equivalence():
    spec = WorkloadSpec()
    mismatches = 0
    shadows = resolved = censored = 0
    for trace in range(50):
        rng = np.random.default_rng(4000 + trace)
        world = generate_world(spec, rng)
        values = world.values
        oracle = TrueTtlOracle()
        pending: dict[int, tuple[float, float, float, float]] = {}
        expect: dict[int, tuple[float, bool]] = {}  # sid -> (true TTL, shadow)
        serves = 0

        now = 0.0
        for sid in range(1000):
            now += float(rng.exponential(0.5))
            if rng.random() < 0.6:
                if rng.random() < 0.5:
                    q = world.queries[int(rng.integers(len(world.queries)))]
                    unit, lo, hi = q.id, q.lo, q.hi
                else:
                    key = int(rng.integers(spec.record_count))
                    unit = spec.query_count + key
                    lo, hi = read_range(values, key)
                action = float(rng.uniform(0.5, 30.0))
                oracle.on_serve(serves, unit, lo, hi, now, action)
                pending[serves] = (lo, hi, now, action)
                serves += 1
            else:
                key = int(rng.integers(spec.record_count))
                new = float(rng.uniform(0.0, spec.record_count))
                old = float(values[key])
                values[key] = new
                got = oracle.on_write(old, new, now)
                hit = [s for s, (lo, hi, _, _) in pending.items()
                       if lo <= old < hi or lo <= new < hi]
                if got != hit:  # both in serve order
                    mismatches += 1
                for s in hit:
                    _, _, served_at, act = pending.pop(s)
                    ttl = now - served_at
                    expect[s] = (ttl, ttl > act)

        if len(oracle.actions) != serves:
            mismatches += 1
        for sid in range(serves):
            true_ttl = oracle.true_ttl[sid]
            if sid in expect:
                e_ttl, e_shadow = expect[sid]
                shadow = true_ttl > oracle.actions[sid]
                if true_ttl != e_ttl or shadow != e_shadow:
                    mismatches += 1
                resolved += 1
                shadows += shadow
            else:
                if not math.isnan(true_ttl):
                    mismatches += 1
                censored += 1
        if oracle.pending_count != len(pending):
            mismatches += 1

    ok = mismatches == 0 and shadows > 0 and resolved > 0 and censored > 0
    _verdict(4, "true-ttl oracle vs brute force", ok,
             f"50 traces, {resolved} resolved / {censored} censored / "
             f"{shadows} shadows, {mismatches} mismatches")


# ---------------------------------------------------------------------------
# 5. the oracle and cache pair marks what a brute-force scan of the cache marks


def test_criterion_05_origin_update_brute_force():
    rng = np.random.default_rng(55)
    capacity = 250
    oracle, cache = TrueTtlOracle(), CacheSystem(capacity)
    # the cache's live entries, in serve order: sid -> [lo, hi, expires_at, pending]
    mirror: dict[int, list] = {}
    next_id = 0
    now = 0.0
    mismatches = marked_total = filtered = 0

    def reap():
        for sid in [s for s, e in mirror.items() if e[2] <= now]:
            del mirror[sid]

    def serve():
        nonlocal next_id
        lo = float(rng.uniform(0.0, 2000.0))
        hi = lo + float(rng.uniform(0.01, 50.0))
        ttl = float(rng.uniform(0.005, 1.0))
        oracle.on_serve(next_id, next_id, lo, hi, now, ttl)
        cache.insert(next_id, next_id, ttl, now)
        if len(mirror) >= capacity:  # evict the earliest expiry, ties by serve id
            del mirror[min(mirror, key=lambda s: (mirror[s][2], s))]
        mirror[next_id] = [lo, hi, now + ttl, False]
        next_id += 1

    def fill():
        # one round in five serves past the capacity and evicts a live entry;
        # evictions take the earliest expiry, so more would leave none to expire
        reap()
        while len(mirror) < capacity:
            serve()
        if rng.random() < 0.2:
            serve()

    fill()
    for _ in range(10_000):
        now += 0.001
        old = float(rng.uniform(0.0, 2000.0))
        new = float(rng.uniform(0.0, 2000.0))
        reap()
        expected = [sid for sid, (lo, hi, _, p) in mirror.items()
                    if not p and (lo <= old < hi or lo <= new < hi)]
        resolved = oracle.on_write(old, new, now)
        got = cache.origin_update(resolved, now)
        if got != expected:
            mismatches += 1
        marked_total += len(expected)
        filtered += len(resolved) - len(got)  # expired or evicted before this write
        for sid in expected:
            if rng.random() < 0.8:  # purge arrives; 20% linger pending
                assert cache.apply_invalidation(sid, now)
                del mirror[sid]
            else:
                mirror[sid][3] = True
        # drain lingerers so pendings never crowd out the live population
        for sid in [s for s, e in mirror.items() if e[3]]:
            if rng.random() < 0.3:
                assert cache.apply_invalidation(sid, now)
                del mirror[sid]
        fill()
    cache.check_invariants()
    if sorted(e.serve_id for e in cache.live_entries()) != sorted(mirror):
        mismatches += 1

    stats = cache.stats
    ok = (mismatches == 0 and marked_total > 10_000 and filtered > 0
          and stats.evictions > 0 and stats.expirations > 0)
    _verdict(5, "origin_update vs brute force", ok,
             f"10000 updates, {marked_total} entries marked, {filtered} dead serves "
             f"skipped, {stats.evictions} evictions, {stats.expirations} expirations, "
             f"{mismatches} mismatches")


# ---------------------------------------------------------------------------
# 6. delayed injection happens exactly at decided_at + action


def test_criterion_06_dei_timing(tiny_cfg):
    sim = Simulation(tiny_cfg, 0.1, "naf-dei", seed=7, log_transitions=True)
    est = sim.estimator

    enqueued: dict[int, tuple[float, float, float]] = {}
    orig_enqueue = est.queue.enqueue

    def spy_enqueue(it):
        enqueued[it.serve_id] = (it.decided_at, it.a, it.due_at)
        orig_enqueue(it)

    # on_due pops a transition and injects it before any other event runs,
    # so each injection belongs to the serve id popped last
    popped: list[int] = []
    orig_pop_due = est.queue.pop_due

    def spy_pop_due(serve_id):
        popped.append(serve_id)
        return orig_pop_due(serve_id)

    injections: list[tuple[float, int, float]] = []
    orig_push = est.agent.replay.push

    def spy_push(s, a, r, s_next):
        injections.append((sim.engine.now, popped[-1], a))
        orig_push(s, a, r, s_next)

    est.queue.enqueue = spy_enqueue
    est.queue.pop_due = spy_pop_due
    est.agent.replay.push = spy_push
    sim.run()

    early = exact = 0
    for at, sid, a in injections:
        decided_at, action, due_at = enqueued[sid]
        if at < due_at:
            early += 1
        if at == due_at == decided_at + action and a == action:
            exact += 1
    log_ok = all(r.due_at == r.decided_at + r.action for r in est.injection_log)
    ok = (len(injections) > 50 and early == 0
          and exact == len(injections) and log_ok)
    _verdict(6, "dei injection timing", ok,
             f"{len(injections)} injections, {early} early, "
             f"{exact} bit-exact at decided_at + action")


# ---------------------------------------------------------------------------
# 7. one config, one seed, one byte stream


def test_criterion_07_determinism():
    _verdict(7, "byte-identical rerun", *check_determinism())


# ---------------------------------------------------------------------------
# 8. delayed injection beats instant misattributed injection


@pytest.mark.slow
def test_criterion_08_dei_beats_naive():
    cfg = build_config(preset="desk", overrides={"estimator.kind": "naf-dei,naf-naive"})
    means = {}
    for kind in ("naf-dei", "naf-naive"):
        rmses = []
        for seed in range(1, 6):
            res, _ = run_single(cfg, 0.1, kind, seed)
            rmses.append(res.truncated_rmse)
        means[kind] = float(np.mean(rmses))
    dei, naive = means["naf-dei"], means["naf-naive"]
    ok = dei <= naive and dei <= 0.9 * naive
    _verdict(8, "dei improves truncated rmse >= 10%", ok,
             f"naf-dei {dei:.3f} vs naf-naive {naive:.3f} over 5 seeds")


# ---------------------------------------------------------------------------
# 9. learned TTLs against the fixed-cap baseline at full scale, under the
#    measured never-expire ceiling


def _per_seed(out, kind):
    with open(out / "per_run.csv") as fh:
        return [r for r in csv.DictReader(fh) if r["estimator"] == kind]


def _seed_line(rows):
    return ", ".join(f"{float(r['hit_rate']):.4f}/{float(r['invalidation_rate']):.4f}"
                     for r in rows)


@pytest.mark.slow
def test_criterion_09_hit_rate_vs_poisson(tmp_path):
    # half-duration variant of the full-scale preset, 3 seeds, to stay
    # inside a test-suite budget
    overrides = {"workload.duration": "900", "bench.runs": "3"}
    cfg = build_config(preset="paper", overrides=overrides)
    cells = tmp_path / "cells"
    run_experiment(cfg, out_dir=cells, echo=lambda *a: None)
    with open(cells / "summary.csv") as fh:
        rows = {r["estimator"]: r for r in csv.DictReader(fh)}
    naf, poi = rows["naf-dei"], rows["poisson"]
    naf_hit = float(naf["hit_rate_mean"])
    poi_hit = float(poi["hit_rate_mean"])
    naf_inv = float(naf["invalidation_rate_mean"])
    poi_inv = float(poi["invalidation_rate_mean"])
    refs_ok = (
        (float(naf["paper_hit_rate"]), float(naf["paper_invalidation_rate"]))
        == (0.885, 0.073)
        and (float(poi["paper_hit_rate"]), float(poi["paper_invalidation_rate"]))
        == (0.795, 0.068)
    )

    # Never expire, never evict, same seeds. A request then misses only on
    # its unit's first request or after a purge since its previous request;
    # any TTL policy misses there too, because that purge or an earlier
    # expiry removed its entry as well. The one way to beat it is a fresh
    # insert inside the invalidation window, where this cell serves (and
    # counts) a stale read, so its stale reads are the only allowance.
    ceiling_cfg = build_config(preset="paper", overrides={
        **overrides,
        "estimator.kind": "fixed",
        "estimator.fixed_ttl": str(cfg.workload.duration),
        "cache.capacity": str(cfg.workload.query_count + cfg.workload.record_count),
        "bench.trace_query": "none",
    })
    run_experiment(ceiling_cfg, out_dir=tmp_path / "ceiling", echo=lambda *a: None)
    ceiling = _per_seed(tmp_path / "ceiling", "fixed")
    ceiling_ok = all(int(r["evictions"]) == 0 and int(r["expirations"]) == 0
                     for r in ceiling)
    ceil_hit = float(np.mean([float(r["hit_rate"]) for r in ceiling]))
    allowance = float(np.mean([
        int(r["stale_reads"]) / (int(r["hits"]) + int(r["misses"])) for r in ceiling
    ]))
    bound = ceil_hit + allowance
    closed = (naf_hit - poi_hit) / (ceil_hit - poi_hit)

    ok = (naf_hit > poi_hit and naf_inv <= poi_inv + 0.05
          and naf_hit <= bound and poi_hit <= bound and ceiling_ok and refs_ok)
    _verdict(9, "hit rate naf-dei > poisson, under the never-expire ceiling", ok,
             f"hit {naf_hit:.4f} vs poisson {poi_hit:.4f}, ceiling {ceil_hit:.4f} "
             f"+ {allowance:.4f} stale; closes {closed:.0%} of the headroom; "
             f"inval {naf_inv:.4f} vs cap {poi_inv + 0.05:.4f}; "
             f"per-seed hit/inval naf-dei [{_seed_line(_per_seed(cells, 'naf-dei'))}] "
             f"poisson [{_seed_line(_per_seed(cells, 'poisson'))}] "
             f"ceiling [{_seed_line(ceiling)}]"
             f"{'' if ceiling_ok else ' with evictions or expirations'}; "
             f"reference columns {'present' if refs_ok else 'missing'}")


# ---------------------------------------------------------------------------
# 10/11. one instrumented full desk run feeds the last two criteria


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk")
    cfg = build_config(preset="desk",
                       overrides={"estimator.kind": "poisson", "bench.runs": "1"})
    results = run_experiment(cfg, out_dir=out, echo=lambda *a: None)
    with open(out / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    return cfg, results, rows


def test_criterion_10_throughput_and_latency(desk_run):
    cfg, results, rows = desk_run
    target = cfg.workload.target_throughput
    achieved = results[0].achieved_throughput
    rate_ok = abs(achieved - target) / target <= 0.05
    lats = {r["latency_s"] for r in rows}
    lat_ok = lats == {"0.004", "0.154"}
    ok = rate_ok and lat_ok
    _verdict(10, "throughput and exact latencies", ok,
             f"{achieved:.1f}/{target:.0f} ops/s, latency values {sorted(lats)}")


def test_criterion_11_workload_statistics(desk_run):
    cfg, _, rows = desk_run

    units = [int(r["unit"]) for r in rows if r["kind"] == "query"]
    counts = np.bincount(units, minlength=cfg.workload.query_count)
    expected = len(units) * ZipfSampler(cfg.workload.query_count, cfg.workload.zipf_s).pmf()
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    zipf_p = float(scipy.stats.chi2.sf(chi2, cfg.workload.query_count - 1))

    times = np.array([float(r["time"]) for r in rows])
    gaps = np.diff(times)
    scale = 1.0 / cfg.workload.target_throughput  # superposed per-connection streams
    ks_p = float(scipy.stats.kstest(gaps, "expon", args=(0.0, scale)).pvalue)

    ok = zipf_p > 0.01 and ks_p > 0.01
    _verdict(11, "zipf and exponential arrivals", ok,
             f"zipf chi2 p = {zipf_p:.3f}, inter-arrival KS p = {ks_p:.3f}")
