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
    make_estimator,
    poisson_ttl,
)
from ttl_lab.simcore import Simulation
from ttl_lab.telemetry import Telemetry


def _telemetry(counts, window=100.0):
    """A Telemetry holding counts[key] writes of each key at t = 0; key k's
    rate at t = 0 is counts[k] / window."""
    tel = Telemetry(window)
    for key, n in counts.items():
        for _ in range(n):
            tel.record_write(key, 0.0)
    return tel


# ---------------------------------------------------------------------------
# poisson math


def test_poisson_ttl_known_rates_exact():
    tel = _telemetry({0: 2, 1: 3})  # 0.02 and 0.03 writes per second
    assert poisson_ttl([0, 1], tel, 0.0, 300.0) == 20.0


def test_poisson_ttl_all_unknown_exact():
    assert poisson_ttl([5, 6, 7], _telemetry({}), 0.0, 300.0) == 100.0
    assert poisson_ttl([5], _telemetry({}), 0.0, 300.0) == 300.0


def test_poisson_ttl_mixed_known_unknown():
    # lam = 0.02 + 2/300; ttl = 1/lam = 37.5
    tel = _telemetry({0: 2})
    assert poisson_ttl([0, 1, 2], tel, 0.0, 300.0) == pytest.approx(37.5, rel=1e-12)


def test_poisson_ttl_cap_binds():
    tel = _telemetry({0: 1}, window=400.0)
    assert poisson_ttl([0], tel, 0.0, 300.0) == 300.0


def test_poisson_ttl_known_rates_are_exact_inverse():
    rng = np.random.default_rng(3)
    for _ in range(50):
        counts = {k: int(rng.integers(1, 200)) for k in range(int(rng.integers(1, 6)))}
        got = poisson_ttl(list(counts), _telemetry(counts), 0.0, 1e9)
        assert got == pytest.approx(1.0 / sum(n / 100.0 for n in counts.values()), rel=1e-12)


def test_poisson_ttl_monotone_in_rates_and_cardinality():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        counts = {k: int(rng.integers(1, 100)) for k in range(n)}
        base = poisson_ttl(list(range(n)), _telemetry(counts), 0.0, 300.0)
        # raising any one rate never raises the ttl
        k = int(rng.integers(0, n))
        bumped = dict(counts)
        bumped[k] += int(rng.integers(10, 100))
        assert poisson_ttl(list(range(n)), _telemetry(bumped), 0.0, 300.0) <= base
        # adding a key (even unknown) never raises the ttl
        assert poisson_ttl(list(range(n + 1)), _telemetry(counts), 0.0, 300.0) <= base


def test_poisson_ttl_errors():
    # an empty result is no error: it carries no rate, so it gets the cap
    assert poisson_ttl([], _telemetry({}), 0.0, 300.0) == 300.0
    # a bad cap fails where it enters, in the config
    with pytest.raises(ValueError, match="max_ttl"):
        build_config(overrides={"estimator.kind": "poisson", "estimator.max_ttl": "0"})


BAD_OPTIONS = [float("nan"), float("inf"), -float("inf"), 0.0, -1.0]


@pytest.mark.parametrize("value", BAD_OPTIONS, ids=repr)
@pytest.mark.parametrize("build", [
    pytest.param(lambda x: dataclasses.replace(build_config(), estimators=("fixed",), fixed_ttl=x),
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
    est = PoissonEstimator(_telemetry({0: 2, 1: 3}), max_ttl=300.0)
    assert est.decide(0, 0, [0, 1], now=0.0) == 20.0
    assert est.decide(1, 0, [], now=0.0) == 300.0  # empty result: cap fallback


def _all_kinds(cfg):
    return dataclasses.replace(cfg, estimators=ESTIMATOR_KINDS)


def test_make_estimator_kinds(tiny_cfg):
    # every kind the config accepts is one the simulation can build
    classes = {"fixed": FixedEstimator, "poisson": PoissonEstimator,
               "naf-dei": NafDeiEstimator, "naf-naive": NafNaiveEstimator}
    assert sorted(ESTIMATOR_KINDS) == sorted(classes)
    cfg = _all_kinds(tiny_cfg)
    for kind in ESTIMATOR_KINDS:
        assert type(Simulation(cfg, 0.1, kind, seed=0).estimator) is classes[kind]


def test_estimator_options_come_from_cfg(tiny_cfg):
    cfg = dataclasses.replace(_all_kinds(tiny_cfg), fixed_ttl=12.0, poisson_max_ttl=77.0)
    assert Simulation(cfg, 0.1, "fixed", seed=0).estimator.ttl == 12.0
    sim = Simulation(cfg, 0.1, "poisson", seed=0)
    assert sim.estimator.max_ttl == 77.0 and sim.estimator.telemetry is sim.telemetry
    for kind in ("naf-dei", "naf-naive"):
        sim = Simulation(cfg, 0.1, kind, seed=0)
        est = sim.estimator
        assert est.sim is sim and est.agent.cfg is cfg.naf and est.reward_cfg is cfg.reward


def test_learner_load_threshold_is_one_minus_the_cells_write_fraction(tiny_cfg):
    cfg = _all_kinds(tiny_cfg)
    for kind in ("naf-dei", "naf-naive"):
        assert Simulation(cfg, 0.3, kind, seed=0).estimator.load_threshold == 0.7
        assert Simulation(cfg, 0.0, kind, seed=0).estimator.load_threshold == 1.0


def test_make_estimator_errors(tiny_cfg):
    with pytest.raises(ValueError, match="estimator 'lru' is not in cfg.estimators"):
        Simulation(tiny_cfg, 0.1, "lru", seed=0)
    with pytest.raises(ValueError, match="unknown estimator kind 'lru'"):
        make_estimator("lru", tiny_cfg, None)
    with pytest.raises(ValueError, match="unknown estimator 'lru'"):
        build_config(overrides={"estimator.kind": "lru"})


def test_injection_log_opt_in(tiny_cfg):
    assert Simulation(tiny_cfg, 0.1, "naf-dei", seed=0).estimator.injection_log is None
    sim = Simulation(tiny_cfg, 0.1, "naf-dei", seed=0, log_transitions=True)
    assert sim.estimator.injection_log == []


@pytest.mark.parametrize("kind", ["naf-dei", "naf-naive"])
def test_nan_agent_output_fails_the_run(tiny_cfg, kind):
    # A diverged learner must stop the run where its TTL enters the event heap
    # (naf-dei's due event) or the cache (naf-naive), not return a truncated run.
    sim = Simulation(_all_kinds(tiny_cfg), 0.1, kind, seed=6)
    sim.estimator.agent.net.biases[-1][:] = np.nan
    with pytest.raises(ValueError, match="nan.*finite"):
        sim.run()


@pytest.mark.parametrize("kind", ["fixed", "poisson", "naf-dei", "naf-naive"])
def test_every_strategy_emits_valid_ttls(tiny_cfg, kind):
    # Whole-run property: every decided TTL is positive, finite, and within
    # the strategy's configured bound.
    res, sim = run_single(_all_kinds(tiny_cfg), 0.1, kind, seed=6)
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
