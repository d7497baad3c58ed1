"""TTL estimators: the policies a simulation builds for itself.

Each Simulation builds one estimator with make_estimator, bound to that run:
it answers decide() on every cache miss and may react to invalidation issues
and DEI due events. A new kind is one name in ESTIMATOR_KINDS and one branch
of make_estimator; its options are checked once, by ExperimentConfig. The
Poisson baseline treats result-key writes as independent Poisson processes
and bets on the minimum expected gap; the NAF estimators learn the TTL
online, differing only in when unfinished transitions are completed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dei import DeiQueue, IncompleteTransition, RewardConfig, transition_reward
from .nafagent import NafAgent, NafConfig, build_state


def poisson_ttl(result_keys, telemetry, now: float, max_ttl: float) -> float:
    """TTL = 1 / sum of result-key write rates, capped at max_ttl.

    The first invalidating write is the minimum over per-key exponential
    waits, itself exponential with the summed rate. Keys with no observed
    writes contribute the default rate 1/max_ttl, aggregated as one division
    so an all-unknown result stays exact (k unknowns -> max_ttl / k). An
    empty result carries no rate information and gets the cap.
    """
    if len(result_keys) == 0:
        return max_ttl
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

    def decide(self, serve_id: int, unit: int, result_keys, now: float) -> float:
        raise NotImplementedError

    def on_invalidation_issued(self, serve_id: int, now: float) -> None:
        pass


class FixedEstimator(TtlEstimator):
    def __init__(self, ttl: float):
        self.ttl = float(ttl)

    def decide(self, serve_id, unit, result_keys, now):
        return self.ttl


class PoissonEstimator(TtlEstimator):
    def __init__(self, telemetry, max_ttl: float):
        self.telemetry = telemetry
        self.max_ttl = max_ttl

    def decide(self, serve_id, unit, result_keys, now):
        return poisson_ttl(result_keys, self.telemetry, now, self.max_ttl)


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
    before completion stamps. The flat reward's load threshold is 1 - w, the
    simulated cell's write fraction."""

    def __init__(self, sim, naf_cfg: NafConfig, reward_cfg: RewardConfig, log_transitions: bool):
        self.sim = sim
        self.agent = NafAgent(naf_cfg, sim.agent_rng)
        self.reward_cfg = reward_cfg
        self.load_threshold = 1.0 - sim.spec.write_fraction
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
        r = transition_reward(it.inval_at, it.due_at, load, self.load_threshold,
                              self.reward_cfg, it.decided_at)
        s_next = self._state(it.result_keys, it.unit, now)
        self._inject(it, r, s_next, now)


class NafNaiveEstimator(_NafEstimator):
    """Ablation without DEI: rewards are computed instantly at decision time,
    so the only finished episode to score is the unit's previous one. The new
    (s, a) is injected immediately with that stale reward and s_next = s; the
    misattribution is the point."""

    def __init__(self, sim, naf_cfg, reward_cfg, log_transitions):
        super().__init__(sim, naf_cfg, reward_cfg, log_transitions)
        self._last_serve: dict[int, int] = {}  # unit -> serve id of its queued episode

    def decide(self, serve_id, unit, result_keys, now):
        s = self._state(result_keys, unit, now)
        a = self.agent.act(s)
        it = IncompleteTransition(serve_id, unit, s, a, decided_at=now, result_keys=result_keys)
        prev_id = self._last_serve.get(unit)
        if prev_id is not None:
            prev = self.queue.pop_due(prev_id)
            load = self.sim.cache.current_load(now)
            r = transition_reward(prev.inval_at, prev.due_at, load, self.load_threshold,
                                  self.reward_cfg, prev.decided_at)
            self._inject(it, r, s, now)
        self.queue.enqueue(it)
        self._last_serve[unit] = serve_id
        return a


ESTIMATOR_KINDS = ("poisson", "naf-dei", "naf-naive", "fixed")


def make_estimator(kind: str, cfg, sim, log_transitions: bool = False) -> TtlEstimator:
    """The estimator of one kind for `sim`, its options read from `cfg` (an
    ExperimentConfig, which checked them)."""
    if kind == "fixed":
        return FixedEstimator(cfg.fixed_ttl)
    if kind == "poisson":
        return PoissonEstimator(sim.telemetry, cfg.poisson_max_ttl)
    if kind == "naf-dei":
        return NafDeiEstimator(sim, cfg.naf, cfg.reward, log_transitions)
    if kind == "naf-naive":
        return NafNaiveEstimator(sim, cfg.naf, cfg.reward, log_transitions)
    raise ValueError(f"unknown estimator kind {kind!r}")
