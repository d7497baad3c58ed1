"""Delayed experience injection: transitions finish when their TTL elapses.

A TTL decision cannot be scored when it is made; the episode ends when the
entry either gets invalidated (the TTL was too long) or expires quietly (it
survived, reward depends on system load). DEI parks the incomplete transition
until decided_at + action, stamps it if an invalidation is issued in between,
and completes it with the reward and successor state observed at the due time.

Two reward forms exist. The flat form pays a survivor a constant and charges
an invalidated entry its overshoot; both terms fall as the TTL grows, so its
expected reward is highest at the shortest TTL whatever the invalidation-time
distribution. Its load threshold is not a setting but an argument of
transition_reward: a learner passes 1 - w, its simulated cell's write
fraction. The survival form pays r0 per second the entry stayed valid and
charges the overshoot on top; for a time to invalidation T its expected reward
r0 E[min(a, T)] - E[(a - T)+] peaks where P(T <= a) = r0 / (1 + r0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .workload import require_finite


@dataclass(frozen=True)
class RewardConfig:
    r0: float = 1.0
    form: str = "flat"  # "flat" or "survival"

    def __post_init__(self) -> None:
        require_finite(self)
        if self.r0 <= 0.0:
            raise ValueError("r0 must be positive")
        if self.form not in ("flat", "survival"):
            raise ValueError(f"unknown reward form {self.form!r}")


def transition_reward(
    t_inv: float | None, due_at: float, load: float, load_threshold: float,
    cfg: RewardConfig, decided_at: float,
) -> float:
    """Reward at completion time.

    Flat form: invalidated episodes pay the overshoot t_inv - due_at
    (non-positive: the invalidation arrived before the chosen expiry).
    Surviving episodes earn r0 scaled by cache load while load stays at or
    under load_threshold, which a learner sets to 1 - w, its simulated cell's
    write fraction; above it they are penalized in proportion to load.

    Survival form (load plays no part): r0 per second the entry stayed valid,
    min(t_inv, due_at) - decided_at, plus the overshoot t_inv - due_at when it
    was invalidated.
    """
    if cfg.form == "survival":
        if t_inv is None:
            return cfg.r0 * (due_at - decided_at)
        return cfg.r0 * (t_inv - decided_at) + (t_inv - due_at)
    if t_inv is not None:
        return t_inv - due_at
    if load <= load_threshold:
        return cfg.r0 * (1.0 + load)
    return -cfg.r0 * load


@dataclass
class IncompleteTransition:
    """A decision waiting for its outcome."""

    serve_id: int
    unit: int
    s: np.ndarray
    a: float
    decided_at: float
    result_keys: list[int] = field(repr=False, default=None)  # type: ignore[assignment]
    inval_at: float | None = None

    @property
    def due_at(self) -> float:
        return self.decided_at + self.a


class DeiQueue:
    """Pending transitions keyed by serve id.

    The simulation scheduler owns the due events; this structure only holds
    state between decision and completion and enforces the bookkeeping rules
    (one stamp per transition, completion exactly once).
    """

    def __init__(self):
        self._pending: dict[int, IncompleteTransition] = {}

    def __len__(self) -> int:
        return len(self._pending)

    def enqueue(self, it: IncompleteTransition) -> None:
        if it.due_at < it.decided_at:
            raise ValueError("transition due before it was decided")
        if it.serve_id in self._pending:
            raise ValueError(f"serve {it.serve_id} already pending")
        self._pending[it.serve_id] = it

    def stamp_invalidation(self, serve_id: int, t_inv: float) -> bool:
        """Record the first invalidation issue time; later stamps are ignored."""
        it = self._pending.get(serve_id)
        if it is None or it.inval_at is not None:
            return False
        it.inval_at = t_inv
        return True

    def pop_due(self, serve_id: int) -> IncompleteTransition:
        return self._pending.pop(serve_id)
