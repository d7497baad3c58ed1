"""Normalized advantage function agent over a continuous TTL action.

One network trunk produces mu(s), V(s) and l(s). With a scalar action the NAF
advantage matrix is the single number e^{2l(s)}, so
A(s,a) = -0.5 e^{2l(s)} (a - mu(s))^2 and Q(s,a) = V(s) + A(s,a) is globally
maximized at a = mu(s) by construction. Gradients of the head are derived by
hand and flow into the shared trunk backprop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import neural
from .neural import AdamState, Mlp, adam_step, backward, forward, init_mlp

HEAD_WIDTH = 3  # network output row: mu, V, l


def naf_q(net: Mlp, s: np.ndarray, a: float) -> float:
    """Q(s, a) for one state-action pair."""
    mu, v, l = forward(net, s)[0]
    delta = a - mu
    return float(v - 0.5 * np.exp(2.0 * l) * delta * delta)


def naf_v(net: Mlp, s: np.ndarray) -> float:
    return float(forward(net, s)[0][1])


def naf_mu(net: Mlp, s: np.ndarray) -> float:
    return float(forward(net, s)[0][0])


def q_curve_1d(net: Mlp, s: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Vectorized Q(s, a) over an action grid."""
    out, _ = forward(net, s)
    mu, v, l = float(out[0]), float(out[1]), float(out[2])
    p = np.exp(2.0 * l)
    delta = np.asarray(actions, dtype=np.float64) - mu
    return v - 0.5 * p * delta * delta


def naf_loss_and_grads(
    net: Mlp, states: np.ndarray, actions: np.ndarray, targets: np.ndarray
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean squared TD loss over a batch and its exact parameter gradients.

    states (N, state_dim), actions (N,), targets (N,). The head Jacobian is
    folded into dOut, then the trunk runs standard backprop.
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    n = states.shape[0]
    if actions.shape != (n,):
        raise ValueError(f"actions must have shape ({n},), got {actions.shape}")
    out, cache = forward(net, states)
    dout = np.zeros_like(out)

    mu = out[:, 0]
    v = out[:, 1]
    ld = np.exp(out[:, 2])
    p = ld * ld
    delta = actions - mu
    q = v - 0.5 * p * delta * delta
    dq = 2.0 * (q - targets) / n
    dout[:, 0] = dq * p * delta
    dout[:, 1] = dq
    dout[:, 2] = dq * (-p * delta * delta)

    loss = float(np.mean((q - targets) ** 2))
    return loss, backward(net, cache, dout)


def build_state(result_keys, telemetry, unit: int, now: float, rate_inputs: int) -> np.ndarray:
    """Feature vector: top-n available write rates (desc, clipped to [0,1],
    zero-padded) plus the unit's miss-rate delta."""
    rates = []
    for k in result_keys:
        r = telemetry.write_rate(int(k), now)
        if r is not None:
            rates.append(min(max(r, 0.0), 1.0))
    rates.sort(reverse=True)
    s = np.zeros(rate_inputs + 1)
    top = rates[:rate_inputs]
    s[: len(top)] = top
    s[rate_inputs] = telemetry.miss_rate_delta(unit, now)
    return s


@dataclass(frozen=True)
class NafConfig:
    rate_inputs: int = 10
    hidden: tuple[int, ...] = (30, 30)
    lr: float = 0.0005
    gamma: float = 0.9
    batch_size: int = 10
    replay_capacity: int = 50_000
    target_sync_interval: int = 100
    target_tau: float = 0.0  # >0 switches to soft target updates
    clip: float = 30.0
    clip_mode: str = "element"
    ttl_min: float = 1.0
    ttl_max: float = 600.0
    explore_steps: int = 1500
    noise_sigma_start: float = 20.0
    noise_sigma_end: float = 1.0
    noise_decay_steps: int = 6000

    @property
    def state_dim(self) -> int:
        return self.rate_inputs + 1

    def validate(self) -> None:
        if self.ttl_min <= 0 or self.ttl_max <= self.ttl_min:
            raise ValueError("need 0 < ttl_min < ttl_max")
        if self.batch_size < 1 or self.replay_capacity < self.batch_size:
            raise ValueError("replay must hold at least one batch")
        if self.clip_mode not in ("element", "norm"):
            raise ValueError(f"unknown clip_mode {self.clip_mode!r}")
        if not (0.0 <= self.target_tau <= 1.0):
            raise ValueError("target_tau must be in [0, 1]")
        if self.gamma < 0.0 or self.gamma >= 1.0:
            raise ValueError("gamma must be in [0, 1)")


class Transition(NamedTuple):
    s: np.ndarray
    a: float
    r: float
    s_next: np.ndarray


class ReplayMemory:
    """Ring buffer; sampling is uniform with replacement."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.buf: list[Transition] = []
        self._next = 0

    def push(self, t: Transition) -> None:
        if len(self.buf) < self.capacity:
            self.buf.append(t)
        else:
            self.buf[self._next] = t
            self._next = (self._next + 1) % self.capacity

    def sample_indices(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, len(self.buf), size=n)

    def __len__(self) -> int:
        return len(self.buf)

    def __getitem__(self, i: int) -> Transition:
        return self.buf[i]


class NafAgent:
    """Online NAF learner: act with decaying Gaussian exploration, train on
    uniformly sampled replay batches against a target network."""

    def __init__(self, cfg: NafConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        self.rng = rng
        dims = (cfg.state_dim, *cfg.hidden, HEAD_WIDTH)
        self.net = init_mlp(dims, rng)
        self.target = self.net.copy()
        self.adam = AdamState()
        self.replay = ReplayMemory(cfg.replay_capacity)
        self.act_count = 0
        self.train_count = 0

    def sigma(self) -> float:
        """Exploration noise scale for the current act step."""
        k = max(0, self.act_count - self.cfg.explore_steps)
        frac = min(1.0, k / max(1, self.cfg.noise_decay_steps))
        return self.cfg.noise_sigma_start + frac * (
            self.cfg.noise_sigma_end - self.cfg.noise_sigma_start
        )

    def act(self, s: np.ndarray) -> float:
        """One TTL decision; pure exploration for the first explore_steps calls."""
        cfg = self.cfg
        if self.act_count < cfg.explore_steps:
            a = self.rng.uniform(cfg.ttl_min, cfg.ttl_max)
        else:
            mu = naf_mu(self.net, s)
            a = mu + self.sigma() * self.rng.standard_normal()
        self.act_count += 1
        return float(min(max(a, cfg.ttl_min), cfg.ttl_max))

    def remember(self, t: Transition) -> None:
        self.replay.push(t)

    def train_step(self) -> tuple[float, list[Transition]] | None:
        """One mini-batch update; no-op until the replay holds a full batch.

        Returns (pre-step loss, sampled transitions) for instrumentation.
        """
        cfg = self.cfg
        if len(self.replay) < cfg.batch_size:
            return None
        idx = self.replay.sample_indices(cfg.batch_size, self.rng)
        batch = [self.replay[int(i)] for i in idx]
        s = np.stack([t.s for t in batch])
        a = np.array([t.a for t in batch])
        r = np.array([t.r for t in batch])
        s_next = np.stack([t.s_next for t in batch])
        v_next = forward(self.target, s_next)[0][:, 1]
        y = r + cfg.gamma * v_next
        loss, grads = naf_loss_and_grads(self.net, s, a, y)
        adam_step(self.net, grads, self.adam, cfg.lr, cfg.clip, cfg.clip_mode)
        self.train_count += 1
        if cfg.target_tau > 0.0:
            tau = cfg.target_tau
            for tp, op in zip(
                self.target.weights + self.target.biases, self.net.weights + self.net.biases
            ):
                tp *= 1.0 - tau
                tp += tau * op
        elif self.train_count % self.cfg.target_sync_interval == 0:
            self.target = self.net.copy()
        return loss, batch

    def save_weights(self, path: str) -> None:
        neural.save_weights(self.net, path)

    def load_weights(self, path: str) -> None:
        self.net = neural.load_weights(path)
        self.target = self.net.copy()
