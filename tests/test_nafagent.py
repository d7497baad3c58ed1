"""NAF head math, the loss/gradient path, replay memory, and the agent loop."""

from __future__ import annotations

import numpy as np
import pytest

from ttl_lab.nafagent import (
    HEAD_WIDTH,
    NafAgent,
    NafConfig,
    ReplayMemory,
    Transition,
    build_state,
    naf_loss_and_grads,
    naf_mu,
    naf_q,
    naf_v,
    q_curve_1d,
)
from ttl_lab.neural import forward, init_mlp


def test_q_from_head_hand_computed():
    # An all-bias output layer fixes the head at mu = 10, V = 5, l = ln 2 for
    # every state, so Q = V - 0.5 e^{2l} (a - mu)^2 = 5 - 2 (a - 10)^2.
    net = init_mlp((3, 4, HEAD_WIDTH), np.random.default_rng(0))
    net.weights[-1][:] = 0.0
    net.biases[-1][:] = [10.0, 5.0, np.log(2.0)]
    s = np.array([0.3, -1.0, 2.0])
    assert naf_mu(net, s) == 10.0
    assert naf_v(net, s) == 5.0
    assert naf_q(net, s, 10.0) == pytest.approx(5.0)
    assert naf_q(net, s, 13.0) == pytest.approx(5.0 - 0.5 * 4 * 9)


def test_q_identities_on_random_nets():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        net = init_mlp((6, 12, HEAD_WIDTH), rng)
        s = rng.uniform(0.0, 1.0, size=6)
        mu = naf_mu(net, s)
        v = naf_v(net, s)
        assert abs(naf_q(net, s, mu) - v) < 1e-12
        for a in rng.uniform(-50.0, 50.0, size=32):
            assert naf_q(net, s, a) <= v + 1e-12


def test_q_curve_matches_pointwise_q():
    rng = np.random.default_rng(5)
    net = init_mlp((4, 10, HEAD_WIDTH), rng)
    s = rng.normal(size=4)
    grid = np.linspace(-20.0, 20.0, 101)
    curve = q_curve_1d(net, s, grid)
    pointwise = np.array([naf_q(net, s, a) for a in grid])
    assert np.allclose(curve, pointwise, atol=1e-12, rtol=0.0)


def test_loss_matches_manual_td_error():
    rng = np.random.default_rng(6)
    net = init_mlp((3, 8, HEAD_WIDTH), rng)
    s = rng.normal(size=(7, 3))
    a = rng.uniform(1.0, 30.0, size=7)
    y = rng.normal(size=7)
    loss, _ = naf_loss_and_grads(net, s, a, y)
    q = np.array([naf_q(net, s[i], a[i]) for i in range(7)])
    assert loss == pytest.approx(float(np.mean((q - y) ** 2)), rel=1e-12)


def _fd_check(net, s, a, y, tol):
    _, flat_g = naf_loss_and_grads(net, s, a, y)
    params = net.params
    eps = 1e-6
    num = np.empty_like(params)
    for i in range(params.size):
        base = params[i]
        params[i] = base + eps
        f_plus = naf_loss_and_grads(net, s, a, y)[0]
        params[i] = base - eps
        f_minus = naf_loss_and_grads(net, s, a, y)[0]
        params[i] = base
        num[i] = (f_plus - f_minus) / (2 * eps)
    denom = np.maximum(np.abs(flat_g) + np.abs(num), 1e-8)
    assert float(np.max(np.abs(flat_g - num) / denom)) < tol


def test_gradients_scalar_action_vs_finite_differences():
    rng = np.random.default_rng(7)
    net = init_mlp((4, 6, HEAD_WIDTH), rng)
    s = rng.normal(size=(5, 4))
    a = rng.uniform(1.0, 30.0, size=5)
    y = rng.normal(size=5)
    _fd_check(net, s, a, y, 1e-5)


# ---------------------------------------------------------------------------
# state features


class _StubTelemetry:
    """counts[key] writes per key in a 10 s window, and a fixed miss-rate delta."""

    window = 10.0

    def __init__(self, counts, delta):
        self.counts = counts
        self.delta = delta

    def write_counts(self, keys, now):
        return [self.counts.get(k, 0) for k in keys]

    def miss_rate_delta(self, unit, now):
        return self.delta


def test_build_state_sorts_clips_and_pads():
    tel = _StubTelemetry({1: 3, 2: 0, 3: 50, 4: 1}, delta=-0.25)  # 0.3, none, 5.0, 0.1 per s
    s = build_state([1, 2, 3, 4, 9], tel, unit=7, now=0.0, rate_inputs=3)
    # 5.0 clips to 1.0; key 2 and 9 have no rate; sorted descending
    assert s.tolist() == [1.0, 0.3, 0.1, -0.25]


def test_build_state_truncates_to_top_rates():
    tel = _StubTelemetry({k: k for k in range(1, 6)}, delta=0.0)  # k / 10 per s
    s = build_state([1, 2, 3, 4, 5], tel, unit=0, now=0.0, rate_inputs=2)
    assert s.tolist() == [0.5, 0.4, 0.0]


def test_build_state_empty_keys_is_zero_vector():
    tel = _StubTelemetry({}, delta=0.0)
    s = build_state([], tel, unit=0, now=0.0, rate_inputs=4)
    assert s.tolist() == [0.0] * 5


# ---------------------------------------------------------------------------
# config and replay


@pytest.mark.parametrize(
    ("kwargs", "match"),
    [
        ({"ttl_min": 0.0}, "ttl_min"),
        ({"ttl_min": 10.0, "ttl_max": 5.0}, "ttl_min"),
        ({"batch_size": 0}, "replay"),
        ({"batch_size": 100, "replay_capacity": 10}, "replay"),
        ({"gamma": 1.0}, "gamma"),
    ],
    ids=["kwargs1-ttl_min", "kwargs2-ttl_min", "kwargs3-replay", "kwargs4-replay",
         "kwargs7-gamma"],
)
def test_naf_config_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        NafConfig(**kwargs)


def test_naf_config_state_dim():
    assert NafConfig(rate_inputs=10).state_dim == 11


def _t(i):
    # state width 3 matches the _agent factory below (rate_inputs=2 plus delta)
    return Transition(np.zeros(3), float(i), 0.0, np.zeros(3))


def test_replay_ring_overwrites_oldest():
    mem = ReplayMemory(3, 3)
    for i in range(5):
        mem.push(_t(i))
    assert len(mem) == 3
    assert mem.a.tolist() == [3.0, 4.0, 2.0]  # slot i % capacity holds push i
    mem.push(_t(5))
    assert mem.a.tolist() == [3.0, 4.0, 5.0]
    t = mem[2]
    assert (t.a, t.r) == (5.0, 0.0) and t.s.shape == t.s_next.shape == (3,)
    with pytest.raises(IndexError):
        ReplayMemory(3, 3)[0]


def test_replay_sampling_bounds_and_capacity_check():
    mem = ReplayMemory(6, 3)
    for i in range(4):
        mem.push(Transition(np.full(3, i), float(i), -float(i), np.full(3, 10 + i)))
    idx, (s, a, r, s_next) = mem.sample(100, np.random.default_rng(0))
    assert idx.min() >= 0 and idx.max() < 4  # only filled slots
    assert np.array_equal(idx, np.random.default_rng(0).integers(0, 4, size=100))
    assert a.tolist() == idx.tolist() and r.tolist() == (-idx).tolist()
    assert np.array_equal(s[:, 0], idx) and np.array_equal(s_next[:, 2], 10 + idx)
    with pytest.raises(ValueError, match="capacity"):
        ReplayMemory(0, 3)


# ---------------------------------------------------------------------------
# agent


def _agent(seed=0, **kw):
    defaults = dict(
        rate_inputs=2,
        hidden=(8,),
        batch_size=4,
        replay_capacity=64,
        explore_steps=5,
        noise_sigma_start=2.0,
        noise_sigma_end=0.5,
        noise_decay_steps=10,
        ttl_min=1.0,
        ttl_max=50.0,
    )
    defaults.update(kw)
    return NafAgent(NafConfig(**defaults), np.random.default_rng(seed))


def test_act_explores_uniformly_then_clamps():
    agent = _agent()
    for _ in range(5):  # exploration phase
        a = agent.act(np.zeros(3))
        assert 1.0 <= a <= 50.0
    assert agent.act_count == 5
    for _ in range(20):  # exploitation, still clamped
        a = agent.act(np.zeros(3))
        assert 1.0 <= a <= 50.0


def test_act_equals_mu_when_noise_is_zero():
    agent = _agent(explore_steps=0, noise_sigma_start=0.0, noise_sigma_end=0.0)
    s = np.array([0.1, 0.2, 0.0])
    mu = float(forward(agent.net, s)[0][0])
    expected = min(max(mu, 1.0), 50.0)
    assert agent.act(s) == expected


def test_sigma_decay_schedule():
    agent = _agent(explore_steps=5, noise_sigma_start=2.0, noise_sigma_end=0.5,
                   noise_decay_steps=10)
    assert agent.sigma() == 2.0  # act_count 0, still exploring
    agent.act_count = 5
    assert agent.sigma() == 2.0  # decay starts after exploration
    agent.act_count = 10
    assert agent.sigma() == pytest.approx(2.0 + 0.5 * (0.5 - 2.0))
    agent.act_count = 15
    assert agent.sigma() == 0.5
    agent.act_count = 1000
    assert agent.sigma() == 0.5  # floor


def test_train_step_waits_for_full_batch():
    agent = _agent()
    assert agent.train_step() is None
    for i in range(3):
        agent.remember(_t(i))
    assert agent.train_step() is None
    agent.remember(_t(3))
    before = agent.net.params.copy()
    loss, idx = agent.train_step()
    assert len(idx) == 4 and idx.max() < 4
    assert loss >= 0.0
    assert not np.array_equal(agent.net.params, before)
    assert agent.train_count == 1


def test_train_step_deterministic_across_agents():
    def run(seed):
        agent = _agent(seed=seed)
        rng = np.random.default_rng(99)
        for i in range(16):
            s = rng.normal(size=3)
            agent.remember(Transition(s, float(rng.uniform(1, 50)), float(rng.normal()), s))
        for _ in range(10):
            agent.train_step()
        return agent.net.params

    assert np.array_equal(run(1), run(1))
    assert not np.array_equal(run(1), run(2))


def test_hard_target_sync_interval():
    agent = _agent(target_sync_interval=3)
    for i in range(8):
        agent.remember(_t(i))
    for step in range(1, 7):
        agent.train_step()
        same = np.array_equal(agent.target.params, agent.net.params)
        assert same == (step % 3 == 0)


def test_train_targets_use_target_network_value():
    # With gamma = 0 the TD target is the raw reward; the loss at a known
    # network state is recomputable by hand.
    agent = _agent(gamma=0.0, batch_size=2, replay_capacity=2)
    t0 = Transition(np.array([0.1, 0.2, 0.3]), 5.0, 1.5, np.zeros(3))
    t1 = Transition(np.array([0.4, 0.5, 0.6]), 7.0, -0.5, np.zeros(3))
    agent.remember(t0)
    agent.remember(t1)
    slots = (t0, t1)  # the replay fills slot 0, then slot 1
    qs = [naf_q(agent.net, t.s, t.a) for t in slots]
    loss, idx = agent.train_step()
    expected = float(np.mean([(qs[i] - slots[i].r) ** 2 for i in idx]))
    assert loss == pytest.approx(expected, rel=1e-12)
