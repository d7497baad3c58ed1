"""Normalized advantage function agent over a continuous TTL action.

One network trunk produces mu(s), V(s) and l(s). With a scalar action the NAF
advantage matrix is the single number e^{2l(s)}, so
A(s,a) = -0.5 e^{2l(s)} (a - mu(s))^2 and Q(s,a) = V(s) + A(s,a) is globally
maximized at a = mu(s) by construction. Gradients of the head are derived by
hand and flow into the shared trunk backprop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .neural import AdamState, Mlp, Workspace, adam_step, backward, forward, init_mlp
from .workload import require_finite

HEAD_WIDTH = 3  # network output row: mu, V, l


def naf_head(net: Mlp, s: np.ndarray, ws: Workspace) -> tuple[float, float, float]:
    """(mu, V, l) of one state; ws is a one-row Workspace for net's dims."""
    mu, v, l = forward(net, s[None, :], ws)[0]
    return float(mu), float(v), float(l)


def naf_q(net: Mlp, s: np.ndarray, actions: np.ndarray, ws: Workspace) -> np.ndarray:
    """Q(s, a) for each action a of one state."""
    mu, v, l = naf_head(net, s, ws)
    delta = actions - mu
    return v - 0.5 * np.exp(2.0 * l) * delta * delta


class NafWorkspace(Workspace):
    """A Workspace with the NAF head's per-sample buffers and dout, the loss
    gradient w.r.t. the output; mu, v and l are views of the output columns
    of the network that backward differentiates."""

    def __init__(self, dims: tuple[int, ...], batch: tuple[int, ...]):
        super().__init__(dims, batch)
        self.n = batch[-1]
        self.p, self.delta, self.e, self.tmp = np.empty((4, self.n))
        self.mu, self.v, self.l = self.outs[-1].T
        self.dout = np.empty((self.n, HEAD_WIDTH))
        self.dmu, self.dv, self.dl = self.dout.T


def naf_loss_and_grads(
    net: Mlp, ws: NafWorkspace, actions: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean squared TD loss over the batch of the last forward run in ws (of
    its first network, for a stack), and its exact gradient, flat like
    net.params (ws.grad).

    actions (N,), targets (N,). The head Jacobian is folded into dout, then
    the trunk runs standard backprop. Each buffer write below is one
    operation of q = v - 0.5 p delta^2, dq = 2 (q - y) / N and the dout
    columns, in left-to-right order.
    """
    n = ws.n
    if actions.shape != (n,):
        raise ValueError(f"actions must have shape ({n},), got {actions.shape}")
    p, delta, e, tmp = ws.p, ws.delta, ws.e, ws.tmp
    np.exp(ws.l, out=p)
    p *= p  # e^{2l} as (e^l)^2
    np.subtract(actions, ws.mu, out=delta)
    np.multiply(p, 0.5, out=tmp)
    tmp *= delta
    tmp *= delta
    np.subtract(ws.v, tmp, out=e)  # q
    e -= targets
    dq = np.multiply(e, 2.0, out=ws.dv)
    dq /= n
    np.multiply(dq, p, out=ws.dmu)
    ws.dmu *= delta
    np.negative(p, out=tmp)
    tmp *= delta
    tmp *= delta
    np.multiply(dq, tmp, out=ws.dl)

    loss = float(np.add.reduce(np.multiply(e, e, out=tmp))) / n
    return loss, backward(net, ws, ws.dout)


def build_state(rates, miss_rate_delta: float, rate_inputs: int) -> np.ndarray:
    """Feature vector: the top-n of a result's known write `rates` (desc,
    clipped to [0,1], zero-padded; Telemetry.write_rates) plus the unit's
    miss-rate delta (MissRateWindow.miss_rate_delta)."""
    top = sorted((min(r, 1.0) for r in rates), reverse=True)[:rate_inputs]
    s = np.zeros(rate_inputs + 1)
    s[: len(top)] = top
    s[rate_inputs] = miss_rate_delta
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
        for name in ("explore_steps", "noise_sigma_start", "noise_sigma_end", "noise_decay_steps"):
            if getattr(self, name) < 0:  # a negative sigma would flip the noise's sign
                raise ValueError(f"{name} must be >= 0")


class ReplayMemory:
    """Ring buffer of transitions in two preallocated arrays, sampled uniformly
    with replacement.

    Slot i of states (capacity, 2, state_dim) holds s and s_next, and slot i
    of ar (capacity, 2) holds a and r; .s, .s_next, .a and .r are views of
    those columns. A sample of n slots is then two takes, into an
    (n, 2, state_dim) and an (n, 2) buffer; transposed, the first is the
    stacked (2, n, state_dim) input of an online and a target network.
    A slot's s and s_next are adjacent, so a replay that is mostly empty
    touches only the pages of its first slots; numpy asks Linux for 2 MB
    pages on arrays this large, and an s_next block placed capacity rows
    away would fault in one of those on its first write.
    """

    def __init__(self, capacity: int, state_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.states = np.zeros((capacity, 2, state_dim))
        self.ar = np.zeros((capacity, 2))
        self.s, self.s_next = self.states.transpose(1, 0, 2)
        self.a, self.r = self.ar.T
        self._len = 0
        self._next = 0

    def push(self, s: np.ndarray, a: float, r: float, s_next: np.ndarray) -> None:
        i = self._next
        self.s[i], self.a[i], self.r[i], self.s_next[i] = s, a, r, s_next
        self._next = (i + 1) % self.capacity
        self._len = min(self._len + 1, self.capacity)

    def sample(self, rng: np.random.Generator, states: np.ndarray, ar: np.ndarray) -> np.ndarray:
        """Draw n = len(ar) slots with replacement; write their (s, s_next)
        into states (n, 2, state_dim) and their (a, r) into ar (n, 2).
        Returns the slots."""
        idx = rng.integers(0, self._len, size=len(ar))
        # Mode "clip" writes straight into out, where "raise" goes through a
        # copy; every slot is below len, so nothing is clipped.
        self.states.take(idx, 0, states, "clip")
        self.ar.take(idx, 0, ar, "clip")
        return idx

    def __len__(self) -> int:
        return self._len


class NafAgent:
    """Online NAF learner: act with decaying Gaussian exploration, train on
    uniformly sampled replay batches against a target network.

    The online and target networks are rows 0 and 1 of one (2, P) parameter
    array, so one stacked forward gives the online outputs on a batch's s and
    the target's on its s_next. Every buffer a step uses is built here."""

    def __init__(self, cfg: NafConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        dims = (cfg.state_dim, *cfg.hidden, HEAD_WIDTH)
        online = init_mlp(dims, rng).params
        self.nets = Mlp(dims, np.stack([online, online]))
        self.net = Mlp(dims, self.nets.params[0])
        self.target = Mlp(dims, self.nets.params[1])
        self.adam = AdamState(online.size)
        self.replay = ReplayMemory(cfg.replay_capacity, cfg.state_dim)
        self.act_count = 0
        self.train_count = 0
        self._act_ws = Workspace(dims, (1,))
        n = cfg.batch_size
        self._train_ws = NafWorkspace(dims, (2, n))
        self._sample = np.empty((n, 2, cfg.state_dim))
        self._x = self._sample.transpose(1, 0, 2)  # s and s_next, as (2, n, state_dim)
        self._ar = np.empty((n, 2))
        self._y = np.empty(n)
        self._v_next = self._train_ws.acts[-1][1, :, 1]  # the target's V on s_next

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
            mu = naf_head(self.net, s, self._act_ws)[0]
            if not math.isfinite(mu):  # the clip below would pass a NaN on
                raise ValueError(f"policy mean {mu} is not finite")
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
        ws, y = self._train_ws, self._y
        idx = self.replay.sample(self.rng, self._sample, self._ar)
        a, r = self._ar.T
        forward(self.nets, self._x, ws)
        np.multiply(self._v_next, cfg.gamma, out=y)
        y += r  # y = r + gamma V'(s_next)
        loss, grad = naf_loss_and_grads(self.net, ws, a, y)
        adam_step(self.net, grad, self.adam, cfg.lr, cfg.clip)
        self.train_count += 1
        if self.train_count % cfg.target_sync_interval == 0:
            np.copyto(self.target.params, self.net.params)
        return loss, idx
