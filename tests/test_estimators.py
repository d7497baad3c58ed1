"""Estimator strategies: Poisson math, the hindsight default, and the factory."""

from __future__ import annotations

import numpy as np
import pytest

from ttl_lab.benchcli import DEFAULT_TTL_GRID, best_default_ttl, run_single, truncated_rmse
from ttl_lab.estimators import (
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
    with pytest.raises(ValueError, match="non-empty"):
        poisson_ttl([], _telemetry({}), 0.0, 300.0)
    with pytest.raises(ValueError, match="max_ttl"):
        poisson_ttl([0], _telemetry({}), 0.0, 0.0)


BAD_OPTIONS = [float("nan"), float("inf"), -float("inf"), 0.0, -1.0]


@pytest.mark.parametrize("value", BAD_OPTIONS, ids=repr)
@pytest.mark.parametrize("build", [
    pytest.param(lambda x: FixedEstimator(x), id="fixed-ttl"),
    pytest.param(lambda x: PoissonEstimator(max_ttl=x), id="poisson-max-ttl"),
    pytest.param(lambda x: poisson_ttl([0], _telemetry({}), 0.0, max_ttl=x), id="poisson_ttl-max-ttl"),
])
def test_estimator_options_must_be_positive_and_finite(build, value):
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
    with pytest.raises(ValueError, match="positive"):
        FixedEstimator(0.0)


class _StubSim:
    def __init__(self, counts):
        self.telemetry = _telemetry(counts)


def test_poisson_estimator_delegates_and_falls_back():
    est = PoissonEstimator(max_ttl=300.0)
    est.attach(_StubSim({0: 2, 1: 3}))
    assert est.decide(0, 0, [0, 1], now=0.0) == 20.0
    assert est.decide(1, 0, [], now=0.0) == 300.0  # empty result: cap fallback
    with pytest.raises(ValueError, match="max_ttl"):
        PoissonEstimator(max_ttl=-1.0)


def test_make_estimator_kinds():
    rng = np.random.default_rng(0)
    assert isinstance(make_estimator("fixed", fixed_ttl=12.0), FixedEstimator)
    assert make_estimator("fixed", fixed_ttl=12.0).ttl == 12.0
    assert isinstance(make_estimator("poisson", poisson_max_ttl=77.0), PoissonEstimator)
    assert make_estimator("poisson", poisson_max_ttl=77.0).max_ttl == 77.0
    assert isinstance(make_estimator("naf-dei", rng=rng), NafDeiEstimator)
    assert isinstance(make_estimator("naf-naive", rng=rng), NafNaiveEstimator)


def test_make_estimator_errors():
    with pytest.raises(ValueError, match="unknown estimator"):
        make_estimator("lru")
    with pytest.raises(ValueError, match="RNG"):
        make_estimator("naf-dei")
    # their options come from ExperimentConfig, which has the one default
    with pytest.raises(ValueError, match="fixed needs a fixed_ttl"):
        make_estimator("fixed", poisson_max_ttl=300.0)
    with pytest.raises(ValueError, match="poisson needs a poisson_max_ttl"):
        make_estimator("poisson", fixed_ttl=60.0)


def test_estimator_kind_labels():
    rng = np.random.default_rng(0)
    assert FixedEstimator(1.0).kind == "fixed"
    assert PoissonEstimator(300.0).kind == "poisson"
    assert make_estimator("naf-dei", rng=rng).kind == "naf-dei"
    assert make_estimator("naf-naive", rng=rng).kind == "naf-naive"


def test_injection_log_opt_in():
    rng = np.random.default_rng(0)
    assert make_estimator("naf-dei", rng=rng).injection_log is None
    assert make_estimator("naf-dei", rng=rng, log_transitions=True).injection_log == []


@pytest.mark.parametrize("kind", ["naf-dei", "naf-naive"])
def test_nan_agent_output_fails_the_run(tiny_cfg, kind):
    # A diverged learner must stop the run where its TTL enters the event heap
    # (naf-dei's due event) or the cache (naf-naive), not return a truncated run.
    sim = Simulation(tiny_cfg.workload_spec(0.1), tiny_cfg.latency, tiny_cfg.capacity,
                     seed=6, telemetry_window=tiny_cfg.telemetry_window)
    est = make_estimator(kind, naf_cfg=tiny_cfg.naf, reward_cfg=tiny_cfg.reward_config(0.1),
                         rng=sim.agent_rng)
    est.agent.net.biases[-1][:] = np.nan
    sim.attach(est)
    with pytest.raises(ValueError, match="nan.*finite"):
        sim.run()


@pytest.mark.parametrize("kind", ["fixed", "poisson", "naf-dei", "naf-naive"])
def test_every_strategy_emits_valid_ttls(tiny_cfg, kind):
    # Whole-run property: every decided TTL is positive, finite, and within
    # the strategy's configured bound.
    res, sim, est = run_single(tiny_cfg, 0.1, kind, seed=6)
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
