"""NAF head math, the loss/gradient path, replay memory, and the agent loop."""

from __future__ import annotations

import numpy as np
import pytest

from ttl_lab.nafagent import (
    HEAD_WIDTH,
    NafAgent,
    NafConfig,
    NafWorkspace,
    ReplayMemory,
    build_state,
    naf_head,
    naf_loss_and_grads,
    naf_q,
)
from ttl_lab.neural import Workspace, forward, init_mlp


def test_q_from_head_hand_computed():
    # An all-bias output layer fixes the head at mu = 10, V = 5, l = ln 2 for
    # every state, so Q = V - 0.5 e^{2l} (a - mu)^2 = 5 - 2 (a - 10)^2.
    net = init_mlp((3, 4, HEAD_WIDTH), np.random.default_rng(0))
    net.weights[-1][:] = 0.0
    net.biases[-1][:] = [10.0, 5.0, np.log(2.0)]
    s = np.array([0.3, -1.0, 2.0])
    ws = Workspace(net.dims, (1,))
    assert naf_head(net, s, ws) == (10.0, 5.0, np.log(2.0))
    assert naf_q(net, s, np.array([10.0, 13.0]), ws) == pytest.approx([5.0, 5.0 - 0.5 * 4 * 9])


def test_q_identities_on_random_nets():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        net = init_mlp((6, 12, HEAD_WIDTH), rng)
        ws = Workspace(net.dims, (1,))
        s = rng.uniform(0.0, 1.0, size=6)
        mu, v, _ = naf_head(net, s, ws)
        assert abs(naf_q(net, s, mu, ws) - v) < 1e-12
        assert np.all(naf_q(net, s, rng.uniform(-50.0, 50.0, size=32), ws) <= v + 1e-12)


def test_q_curve_matches_pointwise_q():
    rng = np.random.default_rng(5)
    net = init_mlp((4, 10, HEAD_WIDTH), rng)
    s = rng.normal(size=4)
    grid = np.linspace(-20.0, 20.0, 101)
    ws = Workspace(net.dims, (1,))
    curve = naf_q(net, s, grid, ws)
    pointwise = np.array([naf_q(net, s, a, ws) for a in grid])
    assert np.allclose(curve, pointwise, atol=1e-12, rtol=0.0)


def test_loss_matches_manual_td_error():
    rng = np.random.default_rng(6)
    net = init_mlp((3, 8, HEAD_WIDTH), rng)
    s = rng.normal(size=(7, 3))
    a = rng.uniform(1.0, 30.0, size=7)
    y = rng.normal(size=7)
    ws = NafWorkspace(net.dims, (7,))
    forward(net, s, ws)
    loss, _ = naf_loss_and_grads(net, ws, a, y)
    one = Workspace(net.dims, (1,))
    q = np.array([naf_q(net, s[i], a[i], one) for i in range(7)])
    assert loss == pytest.approx(float(np.mean((q - y) ** 2)), rel=1e-12)


def _fd_check(net, s, a, y, tol):
    ws = NafWorkspace(net.dims, (len(s),))

    def loss_and_grads():
        forward(net, s, ws)
        return naf_loss_and_grads(net, ws, a, y)

    flat_g = loss_and_grads()[1].copy()
    params = net.params
    eps = 1e-6
    num = np.empty_like(params)
    for i in range(params.size):
        base = params[i]
        params[i] = base + eps
        f_plus = loss_and_grads()[0]
        params[i] = base - eps
        f_minus = loss_and_grads()[0]
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
    """push arguments (s, a, r, s_next); state width 3 matches the _agent
    factory below (rate_inputs=2 plus delta)."""
    return np.zeros(3), float(i), 0.0, np.zeros(3)


def test_replay_ring_overwrites_oldest():
    mem = ReplayMemory(3, 3)
    for i in range(5):
        mem.push(*_t(i))
    assert len(mem) == 3
    assert mem.a.tolist() == [3.0, 4.0, 2.0]  # slot i % capacity holds push i
    mem.push(*_t(5))
    assert mem.a.tolist() == [3.0, 4.0, 5.0]
    assert (mem.a[2], mem.r[2]) == (5.0, 0.0) and mem.s[2].shape == mem.s_next[2].shape == (3,)


def test_replay_sampling_bounds_and_capacity_check():
    mem = ReplayMemory(6, 3)
    for i in range(4):
        mem.push(np.full(3, i), float(i), -float(i), np.full(3, 10 + i))
    # slot-major: a slot's s and s_next sit side by side, as do its a and r
    assert mem.states[1].tolist() == [[1.0] * 3, [11.0] * 3] and mem.ar[1].tolist() == [1.0, -1.0]
    states, ar = np.empty((100, 2, 3)), np.empty((100, 2))
    idx = mem.sample(np.random.default_rng(0), states, ar)
    (s, s_next), (a, r) = states.transpose(1, 0, 2), ar.T
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
    mu = float(forward(agent.net, s[None, :], Workspace(agent.net.dims, (1,)))[0, 0])
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
        agent.replay.push(*_t(i))
    assert agent.train_step() is None
    agent.replay.push(*_t(3))
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
            agent.replay.push(s, float(rng.uniform(1, 50)), float(rng.normal()), s)
        for _ in range(10):
            agent.train_step()
        return agent.net.params

    assert np.array_equal(run(1), run(1))
    assert not np.array_equal(run(1), run(2))


def test_hard_target_sync_interval():
    agent = _agent(target_sync_interval=3)
    for i in range(8):
        agent.replay.push(*_t(i))
    for step in range(1, 7):
        agent.train_step()
        same = np.array_equal(agent.target.params, agent.net.params)
        assert same == (step % 3 == 0)


def test_train_targets_use_target_network_value():
    # With gamma = 0 the TD target is the raw reward; the loss at a known
    # network state is recomputable by hand.
    agent = _agent(gamma=0.0, batch_size=2, replay_capacity=2)
    slots = ((np.array([0.1, 0.2, 0.3]), 5.0, 1.5, np.zeros(3)),
             (np.array([0.4, 0.5, 0.6]), 7.0, -0.5, np.zeros(3)))
    for t in slots:  # the replay fills slot 0, then slot 1
        agent.replay.push(*t)
    ws = Workspace(agent.net.dims, (1,))
    qs = [naf_q(agent.net, s, a, ws) for s, a, _, _ in slots]
    loss, idx = agent.train_step()
    expected = float(np.mean([(qs[i] - slots[i][2]) ** 2 for i in idx]))
    assert loss == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# bit-exact reference: the training step as plain allocating numpy


def _reference_layers(dims, vec):
    """Per-layer (W, b) views of a flat parameter vector, in the agent's layout."""
    layers, pos = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = vec[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out)
        pos += fan_in * fan_out
        layers.append((w, vec[pos : pos + fan_out]))
        pos += fan_out
    return layers


def _reference_forward(layers, x):
    """Each layer's input, then the output."""
    acts = [x]
    for i, (w, b) in enumerate(layers):
        h = acts[-1] @ w + b
        acts.append(np.maximum(h, 0.0) if i < len(layers) - 1 else h)
    return acts


def _reference_train_step(ref, cfg):
    """One update of ref (a dict of flat online/target params, Adam moments,
    replay arrays and rng), with separate target and online forwards."""
    dims, n = ref["dims"], cfg.batch_size
    idx = ref["rng"].integers(0, ref["len"], size=n)
    s, a, r, s_next = ref["s"][idx], ref["a"][idx], ref["r"][idx], ref["s_next"][idx]
    v_next = _reference_forward(_reference_layers(dims, ref["target"]), s_next)[-1][:, 1]
    y = r + cfg.gamma * v_next

    layers = _reference_layers(dims, ref["online"])
    acts = _reference_forward(layers, s)
    out = acts[-1]
    mu, v = out[:, 0], out[:, 1]
    ld = np.exp(out[:, 2])
    p = ld * ld
    delta = a - mu
    q = v - 0.5 * p * delta * delta
    dq = 2.0 * (q - y) / n
    dout = np.zeros_like(out)
    dout[:, 0] = dq * p * delta
    dout[:, 1] = dq
    dout[:, 2] = dq * (-p * delta * delta)
    loss = float(np.mean((q - y) ** 2))

    grad = np.empty_like(ref["online"])
    grads = _reference_layers(dims, grad)
    for i in range(len(layers) - 1, -1, -1):
        if i < len(layers) - 1:
            dout = dout * (acts[i + 1] > 0.0)
        grads[i][0][...] = acts[i].T @ dout
        grads[i][1][...] = dout.sum(axis=0)
        if i > 0:
            dout = dout @ layers[i][0].T

    ref["clipped"] += int((np.abs(grad) > cfg.clip).sum())
    g = np.clip(grad, -cfg.clip, cfg.clip)
    ref["t"] += 1
    m, v2 = ref["m"], ref["v"]
    m *= 0.9
    m += (1.0 - 0.9) * g
    v2 *= 0.999
    v2 += (1.0 - 0.999) * g * g
    ref["online"] -= cfg.lr * (m / (1.0 - 0.9 ** ref["t"])) / (
        np.sqrt(v2 / (1.0 - 0.999 ** ref["t"])) + 1e-8)
    if ref["t"] % cfg.target_sync_interval == 0:
        ref["target"][...] = ref["online"]
    return loss, idx


def test_train_step_is_bit_equal_to_an_allocating_reference():
    # The agent's real dims and batch; a 32-slot replay wraps many times, and
    # rewards of a few thousand make gradients far beyond the clip of 30.
    cfg = NafConfig(batch_size=10, replay_capacity=32, target_sync_interval=7)
    agent = NafAgent(cfg, np.random.default_rng(5))
    assert agent.net.dims == (11, 30, 30, HEAD_WIDTH)
    cap, d = cfg.replay_capacity, cfg.state_dim
    ref = {
        "dims": agent.net.dims, "online": agent.net.params.copy(),
        "target": agent.target.params.copy(), "t": 0, "clipped": 0,
        "m": np.zeros(agent.net.params.size), "v": np.zeros(agent.net.params.size),
        "rng": np.random.default_rng(), "len": 0,
        "s": np.zeros((cap, d)), "a": np.zeros(cap), "r": np.zeros(cap),
        "s_next": np.zeros((cap, d)),
    }
    ref["rng"].bit_generator.state = agent.rng.bit_generator.state
    data = np.random.default_rng(6)
    steps = 0
    for k in range(300):
        t = (data.uniform(-1.0, 1.0, d), float(data.uniform(1.0, 600.0)),
             float(data.normal(0.0, 3000.0)), data.uniform(-1.0, 1.0, d))
        agent.replay.push(*t)
        slot = k % cap
        ref["s"][slot], ref["a"][slot], ref["r"][slot], ref["s_next"][slot] = t
        ref["len"] = min(k + 1, cap)

        got = agent.train_step()
        if ref["len"] < cfg.batch_size:
            assert got is None
            continue
        loss, idx = got
        ref_loss, ref_idx = _reference_train_step(ref, cfg)
        steps += 1
        assert np.array_equal(idx, ref_idx), f"step {steps}"
        assert loss == ref_loss, f"step {steps}"
        assert np.array_equal(agent.net.params, ref["online"]), f"step {steps}"
        assert np.array_equal(agent.target.params, ref["target"]), f"step {steps}"
        assert np.array_equal(agent.adam.m, ref["m"]), f"step {steps}"
        assert np.array_equal(agent.adam.v, ref["v"]), f"step {steps}"
    assert steps >= 250 and agent.train_count == steps
    assert np.isfinite(agent.net.params).all()
    assert ref["clipped"] > 1000  # the clip fired on many elements
