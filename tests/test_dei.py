"""Reward shape, the pending-transition queue, and injection timing semantics."""

from __future__ import annotations

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from ttl_lab.cachesys import CacheSystem
from ttl_lab.config import build_config
from ttl_lab.dei import DeiQueue, IncompleteTransition, RewardConfig, transition_reward
from ttl_lab.estimators import NafDeiEstimator, make_estimator
from ttl_lab.simcore import Engine
from ttl_lab.telemetry import Telemetry

# ---------------------------------------------------------------------------
# reward


def _reward(t_inv, load, cfg):
    """The reward of an entry decided at 4 s and due at 10 s, at load threshold 0.8."""
    return transition_reward(t_inv, 10.0, load=load, load_threshold=0.8, cfg=cfg, decided_at=4.0)


def test_reward_config_validation():
    RewardConfig()
    with pytest.raises(ValueError, match="r0"):
        RewardConfig(r0=0.0)


def test_reward_invalidated_branch():
    cfg = RewardConfig(r0=2.0)
    # the TTL overshot: invalidation at 8 s, expiry would have been 10 s
    assert _reward(8.0, load=0.1, cfg=cfg) == pytest.approx(-2.0)
    assert _reward(10.0, load=0.1, cfg=cfg) == 0.0
    # the invalidation branch wins regardless of load
    assert _reward(3.0, load=0.99, cfg=cfg) == pytest.approx(-7.0)


def test_reward_survival_below_threshold():
    cfg = RewardConfig(r0=2.0)
    assert _reward(None, load=0.0, cfg=cfg) == pytest.approx(2.0)
    assert _reward(None, load=0.5, cfg=cfg) == pytest.approx(3.0)
    # the threshold itself still counts as below
    assert _reward(None, load=0.8, cfg=cfg) == pytest.approx(3.6)


def test_reward_above_threshold_forms():
    # above the threshold a survivor pays r0 * load, the one form there is
    cfg = RewardConfig(r0=2.0)
    assert _reward(None, load=0.9, cfg=cfg) == pytest.approx(-1.8)
    assert _reward(None, load=1.0, cfg=cfg) == pytest.approx(-2.0)


def test_reward_form_validation():
    RewardConfig(form="survival")
    with pytest.raises(ValueError, match="reward form"):
        RewardConfig(form="hyperbolic")


def test_reward_survival_form_values():
    cfg = RewardConfig(r0=2.0, form="survival")
    # decided at 4 s with a 6 s TTL: a survivor earns r0 per second cached,
    # whatever the load
    for load in (0.0, 0.5, 0.9, 1.0):
        r = _reward(None, load=load, cfg=cfg)
        assert r == pytest.approx(12.0)
    # invalidated at 8 s: 4 s survived, 2 s overshoot
    assert _reward(8.0, load=0.1, cfg=cfg) == pytest.approx(6.0)
    assert _reward(8.0, load=0.99, cfg=cfg) == pytest.approx(6.0)
    # invalidated almost at once: the overshoot dominates
    assert _reward(4.5, load=0.1, cfg=cfg) == pytest.approx(-4.5)
    # an invalidation at the due time scores like a survivor
    assert _reward(10.0, load=0.1, cfg=cfg) == pytest.approx(12.0)


def _expected_reward_curve(cfg, lam, grid, load=0.1, load_threshold=0.8, n=2000):
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
            total += transition_reward(t_inv, due_at, load, load_threshold, cfg,
                                       decided_at=decided_at)
        curve.append(total / n)
    return np.array(curve)


def test_flat_reward_never_rises_with_ttl():
    """The flat form's expected reward is highest at the shortest TTL, so a
    learner trained on it is pushed to naf.ttl_min whatever the write rate."""
    grid = np.arange(1.0, 60.0 + 1e-9, 1.0)
    cfg = RewardConfig(r0=2.0)  # load 0.1: under threshold
    for lam in (0.02, 0.1, 0.5):
        curve = _expected_reward_curve(cfg, lam, grid)
        assert np.all(np.diff(curve) <= 1e-9), lam


def test_survival_reward_peaks_at_closed_form_quantile():
    """The survival form's expected reward peaks where P(T <= a) = r0/(1+r0),
    an interior TTL rather than naf.ttl_min; checked with the paper preset's
    reward and TTL floor."""
    paper = build_config(preset="paper")
    cfg = paper.reward
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


def _it(serve_id=0, unit=1, decided_at=5.0, a=3.0):
    return IncompleteTransition(serve_id, unit, np.zeros(3), a=a, decided_at=decided_at,
                                result_keys=np.array([1, 2]))


def test_queue_enqueue_and_pop():
    q = DeiQueue()
    it = _it()
    q.enqueue(it)
    assert len(q) == 1
    assert q.pop_due(0) is it
    assert len(q) == 0


def test_queue_rejects_bad_transitions():
    q = DeiQueue()
    with pytest.raises(ValueError, match="due before"):
        q.enqueue(_it(decided_at=9.0, a=-1.0))
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


def _scripted_sim(cfg, kind):
    """A learner of `kind` driven by hand, with no Simulation: a bare engine,
    with no op timeline, hands its due events back, and an empty cache and
    telemetry give its load and rates. The load threshold is w 0.1's. Its
    `on_inject` appends each injected row to `rows`."""
    engine = Engine(lambda ev: est.on_due(ev.arg, ev.time))  # "dei" is all it schedules
    cache = CacheSystem(cfg.capacity)
    telemetry = Telemetry(cfg.telemetry_window)
    rows = []
    est = make_estimator(kind, cfg, rng=np.random.default_rng(1),
                         window=cfg.telemetry_window, load_threshold=0.9,
                         write_rates=telemetry.write_rates, current_load=cache.current_load,
                         schedule=engine.schedule, on_inject=rows.append)
    return SimpleNamespace(engine=engine, cache=cache, estimator=est, rows=rows)


def test_dei_completes_exactly_at_due_time(tiny_cfg):
    sim = _scripted_sim(tiny_cfg, "naf-dei")
    est = sim.estimator
    keys = np.array([0, 1])

    a = est.decide(serve_id=0, unit=4, result_keys=keys, now=5.0)
    assert len(est.queue) == 1 and len(sim.engine) == 1
    assert len(est.agent.replay) == 0 and sim.rows == []  # nothing injected yet

    sim.engine.run_until(np.nextafter(5.0 + a, 0.0))
    assert len(est.queue) == 1  # not a moment early
    sim.engine.run_until(5.0 + a)
    assert len(est.queue) == 0
    assert len(est.agent.replay) == 1
    [(serve_id, unit, decided_at, due_at, action, reward)] = sim.rows
    assert (serve_id, unit, decided_at, action) == (0, 4, 5.0, a)
    assert due_at == decided_at + action  # bit-exact due timestamp
    replay = est.agent.replay
    assert replay.a[0] == a and replay.r[0] == reward
    # no invalidation: survival reward with an empty cache (load 0)
    assert reward == pytest.approx(tiny_cfg.reward.r0)


def test_dei_invalidation_stamp_flows_into_reward(tiny_cfg):
    sim = _scripted_sim(tiny_cfg, "naf-dei")
    est = sim.estimator

    a = est.decide(serve_id=0, unit=4, result_keys=np.array([0]), now=1.0)
    t_inv = 1.0 + a / 2.0
    est.on_invalidation_issued(0, t_inv)
    est.on_invalidation_issued(0, t_inv + 0.1)  # second stamp is dropped
    sim.engine.run_until(1.0 + a)

    r = est.agent.replay.r[0]
    assert r == pytest.approx(t_inv - (1.0 + a))
    assert r < 0.0
    assert sim.rows == [(0, 4, 1.0, 1.0 + a, a, r)]


def test_injection_trains_before_the_call_returns(tiny_cfg):
    cfg = dataclasses.replace(tiny_cfg, naf=dataclasses.replace(tiny_cfg.naf, batch_size=1))
    dei = _scripted_sim(cfg, "naf-dei")
    a = dei.estimator.decide(serve_id=0, unit=4, result_keys=np.array([0]), now=1.0)
    dei.estimator.on_due(0, 1.0 + a)
    assert dei.estimator.agent.train_count == 1 and len(dei.rows) == 1

    naive = _scripted_sim(cfg, "naf-naive")
    naive.estimator.decide(serve_id=0, unit=7, result_keys=np.array([0]), now=1.0)
    naive.estimator.decide(serve_id=1, unit=7, result_keys=np.array([0]), now=2.0)
    assert naive.estimator.agent.train_count == 1 and len(naive.rows) == 1


def test_naive_first_decision_injects_nothing(tiny_cfg):
    sim = _scripted_sim(tiny_cfg, "naf-naive")
    sim.estimator.decide(serve_id=0, unit=7, result_keys=np.array([0]), now=1.0)
    assert len(sim.estimator.agent.replay) == 0 and sim.rows == []


def test_naive_injects_instantly_with_previous_episode_reward(tiny_cfg):
    sim = _scripted_sim(dataclasses.replace(tiny_cfg, reward=RewardConfig(r0=2.0)), "naf-naive")
    est = sim.estimator

    a0 = est.decide(serve_id=0, unit=7, result_keys=np.array([0]), now=1.0)
    est.on_invalidation_issued(0, 2.5)  # first episode gets invalidated
    a1 = est.decide(serve_id=1, unit=7, result_keys=np.array([0]), now=9.0)

    # the new pair is in replay immediately, scored by the old episode
    assert len(est.agent.replay) == 1
    replay = est.agent.replay
    assert replay.a[0] == a1
    assert replay.r[0] == pytest.approx(2.5 - (1.0 + a0))
    # successor state is the current state: a self-loop
    assert np.array_equal(replay.s[0], replay.s_next[0])
    assert len(sim.engine) == 0  # no dei event scheduled
    # the row is the new decision's, due when it was decided
    assert sim.rows == [(1, 7, 9.0, 9.0, a1, replay.r[0])]


def test_naive_survival_reward_uses_current_load(tiny_cfg):
    sim = _scripted_sim(dataclasses.replace(tiny_cfg, reward=RewardConfig(r0=2.0)), "naf-naive")
    est = sim.estimator

    est.decide(serve_id=0, unit=7, result_keys=np.array([0]), now=1.0)
    # park something in the cache so load is nonzero at the second decision
    sim.cache.insert(unit=99, serve_id=500, ttl=60.0, now=1.0)
    est.decide(serve_id=1, unit=7, result_keys=np.array([0]), now=2.0)

    load = 1.0 / tiny_cfg.capacity
    assert est.agent.replay.r[0] == pytest.approx(2.0 * (1.0 + load))
    assert [row[5] for row in sim.rows] == [est.agent.replay.r[0]]


def test_naive_tracks_units_independently(tiny_cfg):
    sim = _scripted_sim(tiny_cfg, "naf-naive")
    est = sim.estimator
    est.decide(serve_id=0, unit=1, result_keys=np.array([0]), now=1.0)
    est.decide(serve_id=1, unit=2, result_keys=np.array([0]), now=2.0)
    assert len(est.agent.replay) == 0  # each unit's first decision is silent
    est.decide(serve_id=2, unit=1, result_keys=np.array([0]), now=3.0)
    assert len(est.agent.replay) == 1
    assert [row[:2] for row in sim.rows] == [(2, 1)]
    est.on_invalidation_issued(0, 4.0)  # finished episode: stamp is a no-op


# ---------------------------------------------------------------------------
# a bandit drives the real learner

BANDIT_MU = (0.02, 0.05, 0.2)


def _bandit_learner(on_inject):
    """Three states whose invalidations come at T ~ Exp(mu): the learner, on
    paper `naf.*` and `reward.*`, sees each state's rate as its one result
    key's write rate, and a bare engine hands back its due events and the
    bandit's invalidations. Returns the learner, its engine and step(serve_id),
    which decides that serve at time serve_id, in state serve_id % 3, and
    returns the invalidation its decision sees, or None."""
    paper = build_config(preset="paper")
    draws = np.random.default_rng(7)

    def handler(ev):
        if ev.kind == "dei":
            est.on_due(ev.arg, ev.time)
        else:
            est.on_invalidation_issued(ev.arg, ev.time)

    engine = Engine(handler)
    est = NafDeiEstimator(paper.naf, paper.reward, rng=np.random.default_rng(1),
                          window=paper.telemetry_window, load_threshold=1.0,
                          write_rates=lambda keys, now: [BANDIT_MU[k] for k in keys],
                          current_load=lambda now: 0.0, schedule=engine.schedule,
                          on_inject=on_inject)

    def step(serve_id):
        now = float(serve_id)
        engine.run_until(now)
        k = serve_id % len(BANDIT_MU)
        a = est.decide(serve_id, k, [k], now)
        t = now + draws.exponential(1.0 / BANDIT_MU[k])
        if t >= now + a:
            return None
        engine.schedule(t, "inval", serve_id)
        return t

    return est, engine, step


def test_a_bandit_drives_the_dei_learner_with_no_simulation():
    """Every decision is injected once, scored as transition_reward scores
    its draw."""
    paper = build_config(preset="paper")
    rows = []
    est, engine, step = _bandit_learner(rows.append)
    steps = 3000
    t_inv = {serve_id: step(serve_id) for serve_id in range(steps)}
    engine.run_until(steps + paper.naf.ttl_max)

    assert sorted(row[0] for row in rows) == list(range(steps))
    assert len(est.queue) == 0 and len(engine) == 0
    for serve_id, _, decided_at, due_at, _, reward in rows:
        expected = transition_reward(t_inv[serve_id], due_at, 0.0, 1.0,
                                     paper.reward, decided_at)
        assert reward == expected, serve_id


def test_a_learner_holds_no_row_of_what_it_injects():
    # Each row goes to on_inject and nowhere else. Over 3,000 bandit steps
    # after 1,000 of warm-up, the memory allocated and still held grew by 6 KB
    # with a counting on_inject, and by 698 KB when the learner kept a list
    # of its rows.
    injected = 0

    def count(row):
        nonlocal injected
        injected += 1

    _, _, step = _bandit_learner(count)
    for serve_id in range(1000):
        step(serve_id)
    tracemalloc.start()
    try:
        for serve_id in range(1000, 4000):
            step(serve_id)
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert injected > 3000
    assert grown < 128 * 1024
