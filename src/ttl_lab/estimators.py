"""TTL estimators: the policies a simulation can attach.

An estimator answers decide() on every cache miss and may react to
invalidation issues and DEI due events. The Poisson baseline
treats result-key writes as independent Poisson processes and bets on the
minimum expected gap; the NAF estimators learn the TTL online, differing only
in when unfinished transitions are completed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dei import DeiQueue, IncompleteTransition, RewardConfig, transition_reward
from .nafagent import NafAgent, NafConfig, build_state


def poisson_ttl(result_keys, telemetry, now: float, max_ttl: float) -> float:
    """TTL = 1 / sum of result-key write rates, capped at max_ttl.

    The first invalidating write is the minimum over per-key exponential
    waits, itself exponential with the summed rate. Keys with no observed
    writes contribute the default rate 1/max_ttl, aggregated as one division
    so an all-unknown result stays exact (k unknowns -> max_ttl / k).
    """
    if not 0.0 < max_ttl < math.inf:
        raise ValueError(f"max_ttl must be positive and finite, got {max_ttl}")
    if len(result_keys) == 0:
        raise ValueError("poisson_ttl needs a non-empty result key set")
    window = telemetry.window
    known = 0.0
    unknown = 0
    # One rate at a time in key order: np.sum sums pairwise and sum() compensates,
    # and either can move the last bit of the TTL.
    for n in telemetry.write_counts(result_keys, now):
        if n:
            known += n / window
        else:
            unknown += 1
    if known == 0.0:
        return max_ttl / unknown
    lam = known + unknown / max_ttl
    return min(max_ttl, 1.0 / lam)


class TtlEstimator:
    """Base: a policy bound to one simulation."""

    def attach(self, sim) -> None:
        self.sim = sim

    def decide(self, serve_id: int, unit: int, result_keys, now: float) -> float:
        raise NotImplementedError

    def on_invalidation_issued(self, serve_id: int, now: float) -> None:
        pass


class FixedEstimator(TtlEstimator):
    def __init__(self, ttl: float):
        if not 0.0 < ttl < math.inf:
            raise ValueError(f"fixed ttl must be positive and finite, got {ttl}")
        self.ttl = float(ttl)

    def decide(self, serve_id, unit, result_keys, now):
        return self.ttl


class PoissonEstimator(TtlEstimator):
    def __init__(self, max_ttl: float):
        if not 0.0 < max_ttl < math.inf:
            raise ValueError(f"max_ttl must be positive and finite, got {max_ttl}")
        self.max_ttl = max_ttl

    def decide(self, serve_id, unit, result_keys, now):
        if len(result_keys) == 0:
            # An empty result carries no rate information; fall back to the cap.
            return self.max_ttl
        return poisson_ttl(result_keys, self.sim.telemetry, now, self.max_ttl)


class InjectionRow(NamedTuple):
    serve_id: int
    unit: int
    decided_at: float
    due_at: float
    action: float
    reward: float


class _NafEstimator(TtlEstimator):
    """Shared plumbing for the learning estimators: the agent, and the queue
    of decisions waiting for their reward, which an invalidation issued
    before completion stamps."""

    def __init__(
        self,
        naf_cfg: NafConfig,
        reward_cfg: RewardConfig,
        rng: np.random.Generator,
        log_transitions: bool = False,
    ):
        self.agent = NafAgent(naf_cfg, rng)
        self.reward_cfg = reward_cfg
        self.injection_log: list[InjectionRow] | None = [] if log_transitions else None
        self.queue = DeiQueue()

    def on_invalidation_issued(self, serve_id, now):
        self.queue.stamp_invalidation(serve_id, now)

    def _state(self, result_keys, unit: int, now: float) -> np.ndarray:
        return build_state(result_keys, self.sim.telemetry, unit, now, self.agent.cfg.rate_inputs)

    def _inject(self, it: IncompleteTransition, reward: float, s_next: np.ndarray, now: float) -> None:
        self.agent.replay.push(it.s, it.a, reward, s_next)
        if self.injection_log is not None:
            self.injection_log.append(
                InjectionRow(it.serve_id, it.unit, it.decided_at, now, it.a, reward)
            )
        self.agent.train_step()


class NafDeiEstimator(_NafEstimator):
    """NAF with delayed experience injection: each transition completes at
    decided_at + action, scored against the invalidation stamp (if any issued
    meanwhile) or the cache load at that moment."""

    def decide(self, serve_id, unit, result_keys, now):
        s = self._state(result_keys, unit, now)
        a = self.agent.act(s)
        self.queue.enqueue(
            IncompleteTransition(serve_id, unit, s, a, decided_at=now, result_keys=result_keys)
        )
        self.sim.engine.schedule(now + a, "dei", serve_id)
        return a

    def on_due(self, serve_id, now):
        it = self.queue.pop_due(serve_id)
        load = self.sim.cache.current_load(now)
        r = transition_reward(it.inval_at, it.due_at, load, self.reward_cfg, it.decided_at)
        s_next = self._state(it.result_keys, it.unit, now)
        self._inject(it, r, s_next, now)


class NafNaiveEstimator(_NafEstimator):
    """Ablation without DEI: rewards are computed instantly at decision time,
    so the only finished episode to score is the unit's previous one. The new
    (s, a) is injected immediately with that stale reward and s_next = s; the
    misattribution is the point."""

    def __init__(self, naf_cfg, reward_cfg, rng, log_transitions=False):
        super().__init__(naf_cfg, reward_cfg, rng, log_transitions)
        self._last_serve: dict[int, int] = {}  # unit -> serve id of its queued episode

    def decide(self, serve_id, unit, result_keys, now):
        s = self._state(result_keys, unit, now)
        a = self.agent.act(s)
        it = IncompleteTransition(serve_id, unit, s, a, decided_at=now, result_keys=result_keys)
        prev_id = self._last_serve.get(unit)
        if prev_id is not None:
            prev = self.queue.pop_due(prev_id)
            load = self.sim.cache.current_load(now)
            r = transition_reward(prev.inval_at, prev.due_at, load, self.reward_cfg,
                                  prev.decided_at)
            self._inject(it, r, s, now)
        self.queue.enqueue(it)
        self._last_serve[unit] = serve_id
        return a


def make_estimator(
    kind: str,
    naf_cfg: NafConfig | None = None,
    reward_cfg: RewardConfig | None = None,
    rng: np.random.Generator | None = None,
    fixed_ttl: float | None = None,
    poisson_max_ttl: float | None = None,
    log_transitions: bool = False,
) -> TtlEstimator:
    """The estimator of one kind; `fixed` and `poisson` need their option,
    whose default is ExperimentConfig's."""
    if kind == "fixed":
        if fixed_ttl is None:
            raise ValueError("fixed needs a fixed_ttl")
        return FixedEstimator(fixed_ttl)
    if kind == "poisson":
        if poisson_max_ttl is None:
            raise ValueError("poisson needs a poisson_max_ttl")
        return PoissonEstimator(poisson_max_ttl)
    if kind in ("naf-dei", "naf-naive"):
        if rng is None:
            raise ValueError(f"{kind} needs an RNG")
        cls = NafDeiEstimator if kind == "naf-dei" else NafNaiveEstimator
        return cls(naf_cfg or NafConfig(), reward_cfg or RewardConfig(), rng, log_transitions)
    raise ValueError(f"unknown estimator kind {kind!r}")
