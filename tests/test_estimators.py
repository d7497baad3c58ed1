"""Estimator strategies: Poisson math, the hindsight default, and the factory."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from ttl_lab.benchcli import DEFAULT_TTL_GRID, best_default_ttl, run_single, truncated_rmse
from ttl_lab.config import build_config
from ttl_lab.estimators import (
    ESTIMATOR_KINDS,
    FixedEstimator,
    NafDeiEstimator,
    NafNaiveEstimator,
    PoissonEstimator,
    poisson_ttl,
)
from ttl_lab.simcore import Simulation
from ttl_lab.telemetry import Telemetry
from ttl_lab.workload import evaluate_query

# ---------------------------------------------------------------------------
# poisson math: rates are writes / window, here a 100 s window


def test_poisson_ttl_known_rates_exact():
    assert poisson_ttl([0.02, 0.03], 2, 300.0) == 20.0  # 2 and 3 writes in 100 s


def test_poisson_ttl_all_unknown_exact():
    assert poisson_ttl([], 3, 300.0) == 100.0
    assert poisson_ttl([], 1, 300.0) == 300.0


def test_poisson_ttl_mixed_known_unknown():
    # lam = 0.02 + 2/300; ttl = 1/lam = 37.5
    assert poisson_ttl([0.02], 3, 300.0) == pytest.approx(37.5, rel=1e-12)


def test_poisson_ttl_cap_binds():
    assert poisson_ttl([1 / 400.0], 1, 300.0) == 300.0


def test_poisson_ttl_known_rates_are_exact_inverse():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rates = [int(n) / 100.0 for n in rng.integers(1, 200, size=int(rng.integers(1, 6)))]
        got = poisson_ttl(rates, len(rates), 1e9)
        assert got == pytest.approx(1.0 / sum(rates), rel=1e-12)


def test_poisson_ttl_monotone_in_rates_and_cardinality():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        counts = [int(c) for c in rng.integers(1, 100, size=n)]
        base = poisson_ttl([c / 100.0 for c in counts], n, 300.0)
        # raising any one rate never raises the ttl
        bumped = list(counts)
        bumped[int(rng.integers(0, n))] += int(rng.integers(10, 100))
        assert poisson_ttl([c / 100.0 for c in bumped], n, 300.0) <= base
        # adding a key (even unknown) never raises the ttl
        assert poisson_ttl([c / 100.0 for c in counts], n + 1, 300.0) <= base


def test_poisson_ttl_errors():
    # an empty result is no error: it carries no rate, so it gets the cap
    assert poisson_ttl([], 0, 300.0) == 300.0
    # a bad cap fails where it enters, in the config
    with pytest.raises(ValueError, match="max_ttl"):
        build_config(overrides={"estimator.kind": "poisson", "estimator.max_ttl": "0"})


BAD_OPTIONS = [float("nan"), float("inf"), -float("inf"), 0.0, -1.0]


@pytest.mark.parametrize("value", BAD_OPTIONS, ids=repr)
@pytest.mark.parametrize("build", [
    pytest.param(lambda x: dataclasses.replace(build_config(), fixed_ttl=x),
                 id="fixed-ttl"),
    pytest.param(lambda x: dataclasses.replace(build_config(), poisson_max_ttl=x),
                 id="poisson-max-ttl"),
])
def test_estimator_options_must_be_positive_and_finite(build, value):
    # an option set from Python is checked like one parsed from a key
    with pytest.raises(ValueError, match="positive and finite"):
        build(value)


# ---------------------------------------------------------------------------
# best-default oracle


def test_best_default_exact_match():
    assert best_default_ttl([40.0] * 10, candidates=(10.0, 40.0, 100.0)) == (40.0, 0.0)


def test_best_default_two_point_example():
    best, rmse = best_default_ttl([10.0, 30.0], candidates=(10.0, 20.0, 30.0))
    assert best == 20.0
    assert rmse == pytest.approx(10.0)


def test_best_default_matches_exhaustive_recomputation():
    rng = np.random.default_rng(8)
    ttls = rng.exponential(20.0, size=400).tolist()
    best, rmse = best_default_ttl(ttls)
    scored = {c: truncated_rmse([c - t for t in ttls]) for c in DEFAULT_TTL_GRID}
    assert rmse == min(scored.values())
    assert scored[best] == rmse


def test_best_default_empty_raises():
    with pytest.raises(ValueError, match="no resolved"):
        best_default_ttl([])


def test_default_grid_contents():
    assert DEFAULT_TTL_GRID == (1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 60.0, 120.0, 300.0, 600.0)


# ---------------------------------------------------------------------------
# strategies and factory


def test_fixed_estimator():
    est = FixedEstimator(40.0)
    assert est.decide(0, 0, [1, 2, 3], 0.0) == 40.0
    assert est.decide(1, 9, [], 99.0) == 40.0


def test_poisson_estimator_delegates_and_falls_back():
    tel = Telemetry(window=100.0)
    for key in (0, 0, 1, 1, 1):  # 0.02 and 0.03 writes per second
        tel.record_write(key, 0.0)
    est = PoissonEstimator(tel.write_rates, max_ttl=300.0)
    assert est.decide(0, 0, [0, 1], now=0.0) == 20.0
    # key 2 has no write: it counts as unknown, at the default rate 1 / max_ttl
    assert est.decide(1, 0, [0, 2], now=0.0) == pytest.approx(1.0 / (0.02 + 1.0 / 300.0))
    assert est.decide(2, 0, [], now=0.0) == 300.0  # empty result: cap fallback


@pytest.mark.parametrize("query_fraction", [None, 0.5], ids=["queries", "point-reads"])
@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
def test_no_estimator_changes_the_world_index(tiny_cfg, kind, query_fraction):
    # A query's miss hands the estimator the index's own result list, which
    # writes keep moving; an estimator that changed it would leave a result
    # that no longer matches a scan of the values.
    cfg = dataclasses.replace(tiny_cfg, query_fraction=query_fraction)
    sim = Simulation(cfg, 0.3, kind, seed=2).run()
    assert sim.cache.stats.misses > 0 and sim.cache.stats.invalidations > 0
    values = sim.world.values
    for q, lo, hi in sim.world.queries:
        assert sim.world.index.results[q] == evaluate_query(values, lo, hi).tolist()


def test_make_estimator_kinds(tiny_cfg):
    # every kind the config accepts is one the simulation can build, whatever
    # kinds the config's grid lists
    classes = {"fixed": FixedEstimator, "poisson": PoissonEstimator,
               "naf-dei": NafDeiEstimator, "naf-naive": NafNaiveEstimator}
    assert sorted(ESTIMATOR_KINDS) == sorted(classes)
    for kind in ESTIMATOR_KINDS:
        assert type(Simulation(tiny_cfg, 0.1, kind, seed=0).estimator) is classes[kind]


def test_estimator_options_come_from_cfg(tiny_cfg):
    cfg = dataclasses.replace(tiny_cfg, fixed_ttl=12.0, poisson_max_ttl=77.0)
    assert Simulation(cfg, 0.1, "fixed", seed=0).estimator.ttl == 12.0
    sim = Simulation(cfg, 0.1, "poisson", seed=0)
    assert sim.estimator.max_ttl == 77.0 and sim.estimator.write_rates == sim.telemetry.write_rates
    for kind in ("naf-dei", "naf-naive"):
        sim = Simulation(cfg, 0.1, kind, seed=0)
        est = sim.estimator
        assert est.agent.cfg is cfg.naf and est.reward_cfg is cfg.reward
        # the run's own parts, bound to its telemetry, cache and engine
        assert est.write_rates == sim.telemetry.write_rates
        assert est.current_load == sim.cache.current_load
        assert est.schedule == sim.engine.schedule
        assert est.miss_rates.requests.window == cfg.telemetry_window


def test_learner_load_threshold_is_one_minus_the_cells_write_fraction(tiny_cfg):
    for kind in ("naf-dei", "naf-naive"):
        assert Simulation(tiny_cfg, 0.3, kind, seed=0).estimator.load_threshold == 0.7
        assert Simulation(tiny_cfg, 0.0, kind, seed=0).estimator.load_threshold == 1.0


def test_make_estimator_errors(tiny_cfg):
    with pytest.raises(ValueError, match=r"unknown estimator 'lru'; choose from \('poisson'"):
        Simulation(tiny_cfg, 0.1, "lru", seed=0)
    with pytest.raises(ValueError, match="unknown estimator 'lru'"):
        build_config(overrides={"estimator.kind": "lru"})


@pytest.mark.parametrize("kind", ["naf-dei", "naf-naive"])
def test_replay_writer_gets_each_injection_in_order(tiny_cfg, kind):
    # naf-dei injects a decision when it comes due, at decided_at + action;
    # naf-naive injects it at once, with the reward of the unit's previous decision
    assert Simulation(tiny_cfg, 0.1, kind, seed=0).estimator.on_inject is None
    rows = []
    sim = Simulation(tiny_cfg, 0.1, kind, seed=0, replay_writer=rows.append)
    pushed = []
    push = sim.estimator.agent.replay.push

    def spy_push(s, a, r, s_next):
        pushed.append((sim.engine.now, a, r))
        push(s, a, r, s_next)

    sim.estimator.agent.replay.push = spy_push
    sim.run()
    assert len(rows) > 50
    assert [row[3:] for row in rows] == pushed  # (due_at, action, reward), one per push
    for _, _, decided_at, due_at, action, _ in rows:
        assert due_at == (decided_at + action if kind == "naf-dei" else decided_at)


@pytest.mark.parametrize("kind", ["naf-dei", "naf-naive"])
def test_nan_agent_output_fails_the_run(tiny_cfg, kind):
    # A diverged learner must stop the run where its TTL enters the event heap
    # (naf-dei's due event) or the cache (naf-naive), not return a truncated run.
    sim = Simulation(tiny_cfg, 0.1, kind, seed=6)
    sim.estimator.agent.net.biases[-1][:] = np.nan
    with pytest.raises(ValueError, match="nan.*finite"):
        sim.run()


@pytest.mark.parametrize("kind", ["fixed", "poisson", "naf-dei", "naf-naive"])
def test_every_strategy_emits_valid_ttls(tiny_cfg, kind):
    # Whole-run property: every decided TTL is positive, finite, and within
    # the strategy's configured bound.
    res, sim = run_single(tiny_cfg, 0.1, kind, seed=6)
    arr = np.array(sim.telemetry.oracle.actions)
    assert arr.size, "run produced no decisions"
    assert np.all(np.isfinite(arr)) and np.all(arr > 0.0)
    if kind == "fixed":
        assert np.all(arr == tiny_cfg.fixed_ttl)
    elif kind == "poisson":
        assert np.all(arr <= tiny_cfg.poisson_max_ttl)
    else:
        naf = tiny_cfg.naf
        assert np.all((arr >= naf.ttl_min) & (arr <= naf.ttl_max))
