"""TTL estimators: the policies that set each cache miss's TTL.

make_estimator builds one from its options in the config and the parts it
reads, as values and callables. A new kind is one entry of _BUILDERS, whose
keys are ESTIMATOR_KINDS; its options are checked once, by ExperimentConfig,
whatever kinds the grid lists.
The Poisson baseline treats result-key writes as independent Poisson
processes and bets on the minimum expected gap; the NAF estimators learn the
TTL online, differing only in when unfinished transitions are completed.
"""

from __future__ import annotations

import numpy as np

from .dei import DeiQueue, IncompleteTransition, RewardConfig, transition_reward
from .nafagent import NafAgent, NafConfig, build_state
from .telemetry import MissRateWindow


def poisson_ttl(rates, key_count: int, max_ttl: float) -> float:
    """TTL = 1 / sum of the write rates of a result's `key_count` keys, capped
    at max_ttl; `rates` are the known ones, in key order (Telemetry.write_rates).

    The first invalidating write is the minimum over per-key exponential
    waits, itself exponential with the summed rate. The key_count - len(rates)
    keys with no observed writes contribute the default rate 1/max_ttl,
    aggregated as one division so an all-unknown result stays exact (k
    unknowns -> max_ttl / k). An empty result gets the cap.
    """
    if key_count == 0:
        return max_ttl
    known = 0.0
    # One rate at a time in key order: np.sum sums pairwise and sum() compensates,
    # and either can move the last bit of the TTL.
    for rate in rates:
        known += rate
    unknown = key_count - len(rates)
    if known == 0.0:
        return max_ttl / unknown
    lam = known + unknown / max_ttl
    return min(max_ttl, 1.0 / lam)


class TtlEstimator:
    """Base: a TTL policy."""

    def on_request(self, unit: int, now: float, miss: bool) -> None:
        """Each request's outcome, before a miss's decide; only the learners
        count them."""

    def decide(self, serve_id: int, unit: int, result_keys, now: float) -> float:
        """The TTL of a miss of `unit`. `result_keys` is the world's live list:
        never mutate it, nor keep it past the call; copy the keys to keep."""
        raise NotImplementedError

    def on_invalidation_issued(self, serve_id: int, now: float) -> None:
        pass


class FixedEstimator(TtlEstimator):
    def __init__(self, ttl: float):
        self.ttl = float(ttl)

    def decide(self, serve_id, unit, result_keys, now):
        return self.ttl


class PoissonEstimator(TtlEstimator):
    def __init__(self, write_rates, max_ttl: float):
        self.write_rates = write_rates
        self.max_ttl = max_ttl

    def decide(self, serve_id, unit, result_keys, now):
        rates = self.write_rates(result_keys, now)
        return poisson_ttl(rates, len(result_keys), self.max_ttl)


class _NafEstimator(TtlEstimator):
    """Shared plumbing for the learning estimators: the agent, drawing from
    `rng`, each unit's requests and misses over `window` (the state's miss-rate
    delta), and the queue of decisions waiting for their reward. It reads
    `write_rates(keys, now)` and `current_load(now)`, and books each due event
    with `schedule(time, "dei", serve_id)` for on_due. A simulation sets the
    flat reward's `load_threshold` to 1 - w, its cell's write fraction.
    Each injected transition goes to `on_inject`, unless it is None, as one
    row tuple (serve_id, unit, decided_at, due_at, action, reward), due_at
    being the injection's time."""

    def __init__(self, naf_cfg: NafConfig, reward_cfg: RewardConfig, *,
                 rng, window, load_threshold, write_rates, current_load, schedule, on_inject):
        self.agent = NafAgent(naf_cfg, rng)
        self.reward_cfg = reward_cfg
        self.load_threshold = load_threshold
        self.write_rates = write_rates
        self.current_load = current_load
        self.schedule = schedule
        self.on_inject = on_inject
        self.queue = DeiQueue()
        self.miss_rates = MissRateWindow(window)

    def on_request(self, unit, now, miss):
        self.miss_rates.record(unit, now, miss)

    def on_invalidation_issued(self, serve_id, now):
        self.queue.stamp_invalidation(serve_id, now)

    def _state(self, result_keys, unit: int, now: float) -> np.ndarray:
        # rates first: the delta moves its own baseline
        rates = self.write_rates(result_keys, now)
        return build_state(rates, self.miss_rates.miss_rate_delta(unit, now),
                           self.agent.cfg.rate_inputs)

    def _reward(self, it: IncompleteTransition, now: float) -> float:
        # the load is read for every form: current_load sweeps expired entries
        load = self.current_load(now)
        return transition_reward(it.inval_at, it.due_at, load, self.load_threshold,
                                 self.reward_cfg, it.decided_at)

    def _inject(self, it: IncompleteTransition, reward: float, s_next: np.ndarray, now: float) -> None:
        self.agent.replay.push(it.s, it.a, reward, s_next)
        if self.on_inject is not None:
            self.on_inject((it.serve_id, it.unit, it.decided_at, now, it.a, reward))
        self.agent.train_step()


class NafDeiEstimator(_NafEstimator):
    """NAF with delayed experience injection: each transition completes at
    decided_at + action, scored against the invalidation stamp (if any issued
    meanwhile) or the cache load at that moment."""

    def decide(self, serve_id, unit, result_keys, now):
        s = self._state(result_keys, unit, now)
        a = self.agent.act(s)
        keys = list(result_keys)  # a copy: the transition outlives the call
        self.queue.enqueue(IncompleteTransition(serve_id, unit, s, a, now, result_keys=keys))
        self.schedule(now + a, "dei", serve_id)
        return a

    def on_due(self, serve_id, now):
        it = self.queue.pop_due(serve_id)
        r = self._reward(it, now)
        s_next = self._state(it.result_keys, it.unit, now)
        self._inject(it, r, s_next, now)


class NafNaiveEstimator(_NafEstimator):
    """Ablation without DEI: rewards are computed instantly at decision time,
    so the only finished episode to score is the unit's previous one. The new
    (s, a) is injected immediately with that stale reward and s_next = s; the
    misattribution is the point."""

    def __init__(self, naf_cfg, reward_cfg, **parts):
        super().__init__(naf_cfg, reward_cfg, **parts)
        self._last_serve: dict[int, int] = {}  # unit -> serve id of its queued episode

    def decide(self, serve_id, unit, result_keys, now):
        s = self._state(result_keys, unit, now)
        a = self.agent.act(s)
        it = IncompleteTransition(serve_id, unit, s, a, decided_at=now)  # no keys: never read
        prev_id = self._last_serve.get(unit)
        if prev_id is not None:
            r = self._reward(self.queue.pop_due(prev_id), now)
            self._inject(it, r, s, now)
        self.queue.enqueue(it)
        self._last_serve[unit] = serve_id
        return a


# kind -> builder(cfg, parts), reading its options from cfg
_BUILDERS = {
    "poisson": lambda cfg, parts: PoissonEstimator(parts["write_rates"], cfg.poisson_max_ttl),
    "naf-dei": lambda cfg, parts: NafDeiEstimator(cfg.naf, cfg.reward, **parts),
    "naf-naive": lambda cfg, parts: NafNaiveEstimator(cfg.naf, cfg.reward, **parts),
    "fixed": lambda cfg, parts: FixedEstimator(cfg.fixed_ttl),
}
ESTIMATOR_KINDS = tuple(_BUILDERS)
# the kinds that learn, in the order a grid's learned series prefers them
LEARNED_KINDS = ("naf-dei", "naf-naive")


def make_estimator(kind: str, cfg, **parts) -> TtlEstimator:
    """The estimator of one kind from `cfg` and the `parts` it reads (see
    _NafEstimator), `on_inject` among them; the factory sets no part itself.
    Any kind of ESTIMATOR_KINDS can be built from any checked config,
    whatever `cfg.estimators` lists; another kind raises ValueError."""
    if kind not in _BUILDERS:
        raise ValueError(f"unknown estimator {kind!r}; choose from {ESTIMATOR_KINDS}")
    return _BUILDERS[kind](cfg, parts)
