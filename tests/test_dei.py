"""Reward shape, the pending-transition queue, and injection timing semantics."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from ttl_lab.config import build_config
from ttl_lab.dei import DeiQueue, IncompleteTransition, RewardConfig, transition_reward
from ttl_lab.estimators import NafDeiEstimator, NafNaiveEstimator
from ttl_lab.nafagent import NafConfig
from ttl_lab.simcore import Simulation

# ---------------------------------------------------------------------------
# reward


def test_reward_config_validation():
    RewardConfig()
    with pytest.raises(ValueError, match="r0"):
        RewardConfig(r0=0.0)
    with pytest.raises(ValueError, match="load_threshold"):
        RewardConfig(load_threshold=0.0)
    with pytest.raises(ValueError, match="load_threshold"):
        RewardConfig(load_threshold=1.1)


def test_reward_invalidated_branch():
    cfg = RewardConfig(r0=2.0)
    # the TTL overshot: invalidation at 8 s, expiry would have been 10 s
    assert transition_reward(8.0, 10.0, load=0.1, cfg=cfg) == pytest.approx(-2.0)
    assert transition_reward(10.0, 10.0, load=0.1, cfg=cfg) == 0.0
    # the invalidation branch wins regardless of load
    assert transition_reward(3.0, 10.0, load=0.99, cfg=cfg) == pytest.approx(-7.0)


def test_reward_survival_below_threshold():
    cfg = RewardConfig(r0=2.0, load_threshold=0.8)
    assert transition_reward(None, 10.0, load=0.0, cfg=cfg) == pytest.approx(2.0)
    assert transition_reward(None, 10.0, load=0.5, cfg=cfg) == pytest.approx(3.0)
    # the threshold itself still counts as below
    assert transition_reward(None, 10.0, load=0.8, cfg=cfg) == pytest.approx(3.6)


def test_reward_above_threshold_forms():
    # above the threshold a survivor pays r0 * load, the one form there is
    cfg = RewardConfig(r0=2.0, load_threshold=0.8)
    assert transition_reward(None, 10.0, load=0.9, cfg=cfg) == pytest.approx(-1.8)
    assert transition_reward(None, 10.0, load=1.0, cfg=cfg) == pytest.approx(-2.0)


def test_reward_form_validation():
    RewardConfig(form="survival")
    with pytest.raises(ValueError, match="reward form"):
        RewardConfig(form="hyperbolic")


def test_reward_survival_form_values():
    cfg = RewardConfig(r0=2.0, load_threshold=0.8, form="survival")
    # decided at 4 s with a 6 s TTL: a survivor earns r0 per second cached,
    # whatever the load
    for load in (0.0, 0.5, 0.9, 1.0):
        r = transition_reward(None, 10.0, load=load, cfg=cfg, decided_at=4.0)
        assert r == pytest.approx(12.0)
    # invalidated at 8 s: 4 s survived, 2 s overshoot
    assert transition_reward(8.0, 10.0, load=0.1, cfg=cfg, decided_at=4.0) == pytest.approx(6.0)
    assert transition_reward(8.0, 10.0, load=0.99, cfg=cfg, decided_at=4.0) == pytest.approx(6.0)
    # invalidated almost at once: the overshoot dominates
    assert transition_reward(4.5, 10.0, load=0.1, cfg=cfg, decided_at=4.0) == pytest.approx(-4.5)
    # an invalidation at the due time scores like a survivor
    assert transition_reward(10.0, 10.0, load=0.1, cfg=cfg, decided_at=4.0) == pytest.approx(12.0)
    with pytest.raises(ValueError, match="decided_at"):
        transition_reward(None, 10.0, load=0.1, cfg=cfg)


def _expected_reward_curve(cfg, lam, grid, load=0.1, n=2000):
    """E[reward] per TTL on the grid, for T ~ Exp(lam) sampled at its
    probability midpoints, scored by transition_reward itself."""
    times = -np.log1p(-(np.arange(n) + 0.5) / n) / lam
    decided_at = 100.0
    curve = []
    for a in grid:
        due_at = decided_at + a
        total = 0.0
        for t in times:
            t_inv = decided_at + t if t <= a else None
            total += transition_reward(t_inv, due_at, load, cfg, decided_at=decided_at)
        curve.append(total / n)
    return np.array(curve)


def test_flat_reward_never_rises_with_ttl():
    """The flat form's expected reward is highest at the shortest TTL, so a
    learner trained on it is pushed to naf.ttl_min whatever the write rate."""
    grid = np.arange(1.0, 60.0 + 1e-9, 1.0)
    cfg = RewardConfig(r0=2.0, load_threshold=0.8)  # load 0.1: under threshold
    for lam in (0.02, 0.1, 0.5):
        curve = _expected_reward_curve(cfg, lam, grid)
        assert np.all(np.diff(curve) <= 1e-9), lam


def test_survival_reward_peaks_at_closed_form_quantile():
    """The survival form's expected reward peaks where P(T <= a) = r0/(1+r0),
    an interior TTL rather than naf.ttl_min; checked with the paper preset's
    reward and TTL floor."""
    paper = build_config(preset="paper")
    cfg = paper.reward_config(0.1)
    assert cfg.form == "survival"
    step = 0.25
    grid = np.arange(paper.naf.ttl_min, 60.0 + 1e-9, step)
    for lam in (0.05, 0.1, 0.3):
        curve = _expected_reward_curve(cfg, lam, grid)
        best = float(grid[int(np.argmax(curve))])
        quantile = -np.log(1.0 / (1.0 + cfg.r0)) / lam
        assert abs(best - quantile) <= step, (lam, best, quantile)
        assert best > paper.naf.ttl_min


# ---------------------------------------------------------------------------
# queue


def _it(serve_id=0, unit=1, decided_at=5.0, due_at=8.0):
    return IncompleteTransition(serve_id, unit, np.zeros(3), a=due_at - decided_at,
                                decided_at=decided_at, due_at=due_at,
                                result_keys=np.array([1, 2]))


def test_queue_enqueue_and_pop():
    q = DeiQueue()
    it = _it()
    q.enqueue(it)
    assert len(q) == 1
    assert 0 in q
    assert q.pop_due(0) is it
    assert len(q) == 0
    assert 0 not in q


def test_queue_rejects_bad_transitions():
    q = DeiQueue()
    with pytest.raises(ValueError, match="due before"):
        q.enqueue(_it(decided_at=9.0, due_at=8.0))
    q.enqueue(_it(serve_id=3))
    with pytest.raises(ValueError, match="already pending"):
        q.enqueue(_it(serve_id=3))


def test_queue_stamps_first_invalidation_only():
    q = DeiQueue()
    q.enqueue(_it(serve_id=1))
    assert q.stamp_invalidation(1, 6.0) is True
    assert q.stamp_invalidation(1, 7.0) is False  # later stamps ignored
    assert q.pop_due(1).inval_at == 6.0
    assert q.stamp_invalidation(99, 6.0) is False  # unknown serve


def test_queue_pop_unknown_raises():
    with pytest.raises(KeyError):
        DeiQueue().pop_due(123)


# ---------------------------------------------------------------------------
# scripted estimator flows


def _scripted_sim(tiny_cfg, estimator):
    """A simulation that never run()s: handlers are driven by hand."""
    sim = Simulation(tiny_cfg.workload_spec(0.1), tiny_cfg.latency,
                     tiny_cfg.capacity, seed=1, telemetry_window=tiny_cfg.telemetry_window)
    sim.attach(estimator)
    return sim


def test_dei_completes_exactly_at_due_time(tiny_cfg):
    est = NafDeiEstimator(tiny_cfg.naf, RewardConfig(),
                          np.random.default_rng(0), log_transitions=True)
    sim = _scripted_sim(tiny_cfg, est)
    keys = np.array([0, 1])

    a = est.decide(serve_id=0, unit=4, result_keys=keys, now=5.0)
    assert 0 in est.queue
    assert len(est.agent.replay) == 0  # nothing injected yet
    assert sim.engine.peek_time() == 5.0 + a

    sim.engine.run_until(5.0 + a)
    assert 0 not in est.queue
    assert len(est.agent.replay) == 1
    row = est.injection_log[0]
    assert row.serve_id == 0
    assert row.due_at == row.decided_at + row.action  # bit-exact due timestamp
    t = est.agent.replay[0]
    assert t.a == a
    # no invalidation: survival reward with an empty cache (load 0)
    assert t.r == pytest.approx(RewardConfig().r0)


def test_dei_invalidation_stamp_flows_into_reward(tiny_cfg):
    est = NafDeiEstimator(tiny_cfg.naf, RewardConfig(),
                          np.random.default_rng(1), log_transitions=True)
    sim = _scripted_sim(tiny_cfg, est)

    a = est.decide(serve_id=0, unit=4, result_keys=np.array([0]), now=1.0)
    t_inv = 1.0 + a / 2.0
    est.on_invalidation_issued(0, 4, t_inv)
    est.on_invalidation_issued(0, 4, t_inv + 0.1)  # second stamp is dropped
    sim.engine.run_until(1.0 + a)

    t = est.agent.replay[0]
    assert t.r == pytest.approx(t_inv - (1.0 + a))
    assert t.r < 0.0


def test_injection_trains_before_the_call_returns(tiny_cfg):
    naf = dataclasses.replace(tiny_cfg.naf, batch_size=1)
    dei = NafDeiEstimator(naf, RewardConfig(), np.random.default_rng(6))
    _scripted_sim(tiny_cfg, dei)
    a = dei.decide(serve_id=0, unit=4, result_keys=np.array([0]), now=1.0)
    dei.on_due(0, 1.0 + a)
    assert dei.agent.train_count == 1

    naive = NafNaiveEstimator(naf, RewardConfig(), np.random.default_rng(7))
    _scripted_sim(tiny_cfg, naive)
    naive.decide(serve_id=0, unit=7, result_keys=np.array([0]), now=1.0)
    naive.decide(serve_id=1, unit=7, result_keys=np.array([0]), now=2.0)
    assert naive.agent.train_count == 1


def test_naive_first_decision_injects_nothing(tiny_cfg):
    est = NafNaiveEstimator(tiny_cfg.naf, RewardConfig(),
                            np.random.default_rng(2))
    _scripted_sim(tiny_cfg, est)
    est.decide(serve_id=0, unit=7, result_keys=np.array([0]), now=1.0)
    assert len(est.agent.replay) == 0


def test_naive_injects_instantly_with_previous_episode_reward(tiny_cfg):
    est = NafNaiveEstimator(tiny_cfg.naf, RewardConfig(r0=2.0),
                            np.random.default_rng(3))
    sim = _scripted_sim(tiny_cfg, est)

    a0 = est.decide(serve_id=0, unit=7, result_keys=np.array([0]), now=1.0)
    est.on_invalidation_issued(0, 7, 2.5)  # first episode gets invalidated
    a1 = est.decide(serve_id=1, unit=7, result_keys=np.array([0]), now=9.0)

    # the new pair is in replay immediately, scored by the old episode
    assert len(est.agent.replay) == 1
    t = est.agent.replay[0]
    assert t.a == a1
    assert t.r == pytest.approx(2.5 - (1.0 + a0))
    # successor state is the current state: a self-loop
    assert np.array_equal(t.s, t.s_next)
    assert sim.engine.peek_time() is None  # no dei event scheduled


def test_naive_survival_reward_uses_current_load(tiny_cfg):
    est = NafNaiveEstimator(tiny_cfg.naf, RewardConfig(r0=2.0),
                            np.random.default_rng(4))
    sim = _scripted_sim(tiny_cfg, est)

    est.decide(serve_id=0, unit=7, result_keys=np.array([0]), now=1.0)
    # park something in the cache so load is nonzero at the second decision
    sim.cache.insert(unit=99, serve_id=500, ttl=60.0, now=1.0)
    est.decide(serve_id=1, unit=7, result_keys=np.array([0]), now=2.0)

    load = 1.0 / tiny_cfg.capacity
    assert est.agent.replay[0].r == pytest.approx(2.0 * (1.0 + load))


def test_naive_tracks_units_independently(tiny_cfg):
    est = NafNaiveEstimator(tiny_cfg.naf, RewardConfig(),
                            np.random.default_rng(5))
    _scripted_sim(tiny_cfg, est)
    est.decide(serve_id=0, unit=1, result_keys=np.array([0]), now=1.0)
    est.decide(serve_id=1, unit=2, result_keys=np.array([0]), now=2.0)
    assert len(est.agent.replay) == 0  # each unit's first decision is silent
    est.decide(serve_id=2, unit=1, result_keys=np.array([0]), now=3.0)
    assert len(est.agent.replay) == 1
    est.on_invalidation_issued(0, 1, 4.0)  # finished episode: stamp is a no-op
