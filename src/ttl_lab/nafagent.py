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

from .neural import AdamState, Mlp, adam_step, backward, forward, init_mlp
from .workload import require_finite

HEAD_WIDTH = 3  # network output row: mu, V, l


def naf_head(net: Mlp, s: np.ndarray) -> tuple[float, float, float]:
    """(mu, V, l) of one state."""
    mu, v, l = forward(net, s[None, :])[0][0]
    return float(mu), float(v), float(l)


def naf_q(net: Mlp, s: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Q(s, a) for each action a of one state."""
    mu, v, l = naf_head(net, s)
    delta = actions - mu
    return v - 0.5 * np.exp(2.0 * l) * delta * delta


def naf_loss_and_grads(
    net: Mlp, states: np.ndarray, actions: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean squared TD loss over a batch and its exact gradient, flat like net.params.

    states (N, state_dim), actions (N,), targets (N,). The head Jacobian is
    folded into dOut, then the trunk runs standard backprop.
    """
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
    zero-padded) plus the unit's miss-rate delta. A key with no write in the
    telemetry window has no rate and takes no slot."""
    window = telemetry.window
    rates = [min(n / window, 1.0) for n in telemetry.write_counts(result_keys, now) if n]
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
    clip: float = 30.0  # elementwise gradient clip; 0 disables
    ttl_min: float = 1.0
    ttl_max: float = 600.0
    explore_steps: int = 1500
    noise_sigma_start: float = 20.0
    noise_sigma_end: float = 1.0
    noise_decay_steps: int = 6000

    @property
    def state_dim(self) -> int:
        return self.rate_inputs + 1

    def __post_init__(self) -> None:
        require_finite(self)
        if self.ttl_min <= 0 or self.ttl_max <= self.ttl_min:
            raise ValueError("need 0 < ttl_min < ttl_max")
        if self.lr < 0.0:
            raise ValueError("lr must be >= 0")
        if self.clip < 0.0:
            raise ValueError("clip must be >= 0")
        if self.batch_size < 1 or self.replay_capacity < self.batch_size:
            raise ValueError("replay must hold at least one batch")
        if self.gamma < 0.0 or self.gamma >= 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if self.rate_inputs < 0:
            raise ValueError("rate_inputs must be >= 0")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"every hidden width must be >= 1, got {self.hidden}")
        if self.target_sync_interval < 1:
            raise ValueError("target_sync_interval must be >= 1")


class Transition(NamedTuple):
    s: np.ndarray
    a: float
    r: float
    s_next: np.ndarray


class ReplayMemory:
    """Ring buffer of transitions held as four preallocated arrays, one row
    per slot; sampling is uniform with replacement."""

    def __init__(self, capacity: int, state_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.s = np.zeros((capacity, state_dim))
        self.a = np.zeros(capacity)
        self.r = np.zeros(capacity)
        self.s_next = np.zeros((capacity, state_dim))
        self._len = 0
        self._next = 0

    def push(self, t: Transition) -> None:
        i = self._next
        self.s[i], self.a[i], self.r[i], self.s_next[i] = t
        self._next = (i + 1) % self.capacity
        self._len = min(self._len + 1, self.capacity)

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, Transition]:
        """n slots drawn with replacement, and their transitions as arrays."""
        idx = rng.integers(0, self._len, size=n)
        return idx, Transition(self.s[idx], self.a[idx], self.r[idx], self.s_next[idx])

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> Transition:
        if not 0 <= i < self._len:
            raise IndexError(f"replay slot {i} outside [0, {self._len})")
        return Transition(self.s[i], float(self.a[i]), float(self.r[i]), self.s_next[i])


class NafAgent:
    """Online NAF learner: act with decaying Gaussian exploration, train on
    uniformly sampled replay batches against a target network."""

    def __init__(self, cfg: NafConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        dims = (cfg.state_dim, *cfg.hidden, HEAD_WIDTH)
        self.net = init_mlp(dims, rng)
        self.target = self.net.copy()
        self.adam = AdamState()
        self.replay = ReplayMemory(cfg.replay_capacity, cfg.state_dim)
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
            mu = naf_head(self.net, s)[0]
            a = mu + self.sigma() * self.rng.standard_normal()
        self.act_count += 1
        return float(min(max(a, cfg.ttl_min), cfg.ttl_max))

    def train_step(self) -> tuple[float, np.ndarray] | None:
        """One mini-batch update; no-op until the replay holds a full batch.

        Returns (pre-step loss, sampled replay slots) for instrumentation.
        """
        cfg = self.cfg
        if len(self.replay) < cfg.batch_size:
            return None
        idx, (s, a, r, s_next) = self.replay.sample(cfg.batch_size, self.rng)
        v_next = forward(self.target, s_next)[0][:, 1]
        y = r + cfg.gamma * v_next
        loss, grad = naf_loss_and_grads(self.net, s, a, y)
        adam_step(self.net, grad, self.adam, cfg.lr, cfg.clip)
        self.train_count += 1
        if self.train_count % cfg.target_sync_interval == 0:
            np.copyto(self.target.params, self.net.params)
        return loss, idx
