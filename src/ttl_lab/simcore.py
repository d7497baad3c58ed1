"""Discrete-event core and the simulation that wires everything together.

A Simulation is one run, built from an ExperimentConfig, a write fraction, an
estimator kind and a seed. It builds its estimator last, from the same config,
so the estimator is bound from the start to the run's clock, cache, telemetry
and agent RNG.

Virtual time is a float starting at 0. Events are totally ordered by
(time, insertion sequence), so simultaneous events dispatch in scheduling
order and a run is a pure function of (config, seed). Each event carries one
int: for "op" the arriving connection, for "inval" (the delayed purge) and
"dei" (a transition coming due) a serve id. Each of the `workload.connections`
open-loop connections draws its exponential arrival gaps a block at a time,
inside the event loop; the gaps are those of one `exponential` call per arrival.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .cachesys import CacheSystem, Lookup
from .estimators import make_estimator
from .telemetry import Telemetry
from .workload import (
    OpStream,
    block_draws,
    evaluate_query,
    generate_world,
    read_range,
    require_finite,
)

if TYPE_CHECKING:
    from .config import ExperimentConfig

# Arrival gaps each connection fetches per numpy call; one block per
# connection is held at a time.
_GAP_BLOCK = 64


class SimEvent(NamedTuple):
    time: float
    seq: int
    kind: str
    arg: int  # the connection of an "op", the serve id of an "inval" or "dei"


class Engine:
    """Minimal event loop over a binary heap."""

    def __init__(self, handler: Callable[[SimEvent], None] | None = None):
        self.handler = handler
        self.now = 0.0
        self._heap: list[SimEvent] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: float, kind: str, arg: int) -> None:
        if not (self.now <= time < math.inf):
            raise ValueError(
                f"cannot schedule {kind!r} at {time}: not finite or before now={self.now}"
            )
        heapq.heappush(self._heap, SimEvent(time, self._seq, kind, arg))
        self._seq += 1

    def run_until(self, t_end: float) -> int:
        """Dispatch every event with time <= t_end; clock lands on t_end."""
        if t_end < self.now:
            raise ValueError(f"t_end {t_end} is in the past (now={self.now})")
        n = 0
        heap = self._heap
        while heap and heap[0].time <= t_end:
            ev = heapq.heappop(heap)
            self.now = ev.time
            self.handler(ev)
            n += 1
        self.now = t_end
        return n


@dataclass(frozen=True)
class LatencyModel:
    """Fixed service times, set in ms and read in s: a hit pays the edge round
    trip, a miss adds the origin's, and invalidations reach the edge later."""

    edge_rtt_ms: float = 4.0
    origin_rtt_ms: float = 150.0
    invalidation_delay_ms: float = 2.0

    @property
    def hit_latency(self) -> float:
        return self.edge_rtt_ms / 1000.0

    @property
    def miss_latency(self) -> float:
        # the round trips summed in seconds; (edge + origin) / 1000 can differ in the last bit
        return self.edge_rtt_ms / 1000.0 + self.origin_rtt_ms / 1000.0

    @property
    def invalidation_delay(self) -> float:
        return self.invalidation_delay_ms / 1000.0

    def __post_init__(self) -> None:
        require_finite(self)
        if min(self.edge_rtt_ms, self.origin_rtt_ms, self.invalidation_delay_ms) < 0.0:
            raise ValueError("latencies must be non-negative")


class Simulation:
    """One seeded run: open-loop Poisson clients against an edge cache whose
    TTLs come from the run's own estimator, `estimator`.

    Cacheable units share one id space: range query q is unit q, a point read
    of key k is unit query_count + k (a singleton range over k's value).
    """

    def __init__(
        self,
        cfg: ExperimentConfig,
        write_fraction: float,
        estimator_kind: str,
        seed: int,
        trace_writer: Callable[[tuple], None] | None = None,
        log_transitions: bool = False,
    ):
        self.spec = spec = cfg.workload_spec(write_fraction)
        self.latency = cfg.latency
        self.trace_writer = trace_writer

        ss = np.random.SeedSequence(seed)
        world_ss, ops_ss, arrivals_ss, agent_ss = ss.spawn(4)
        # Handed to the estimator so policy noise never perturbs the workload.
        self.agent_rng = np.random.default_rng(agent_ss)

        self.world = generate_world(spec, np.random.default_rng(world_ss))
        self.ops = OpStream(spec, np.random.default_rng(ops_ss))
        self.engine = Engine(self._dispatch)
        self.cache = CacheSystem(cfg.capacity)
        self.telemetry = Telemetry(cfg.telemetry_window)

        self.mean_gap = spec.connections / spec.target_throughput
        self._next_gap = [
            block_draws(partial(rng.exponential, self.mean_gap), _GAP_BLOCK).__next__
            for rng in map(np.random.default_rng, arrivals_ss.spawn(spec.connections))
        ]
        self.op_arrivals = 0
        self.completed = 0
        self.latency_sum = 0.0
        self._serve_seq = 0
        # last: the estimator reads the parts above
        self.estimator = make_estimator(estimator_kind, cfg, self, log_transitions)

    def unit_for(self, op_kind: str, target: int) -> int:
        return target if op_kind == "query" else self.spec.query_count + target

    def run(self) -> "Simulation":
        for conn in range(self.spec.connections):
            self.engine.schedule(self._next_gap[conn](), "op", conn)
        self.engine.run_until(self.spec.duration)
        return self

    # -- event handlers ----------------------------------------------------

    def _dispatch(self, ev: SimEvent) -> None:
        kind = ev.kind
        if kind == "op":
            self._handle_arrival(ev.arg, ev.time)
        elif kind == "inval":
            self.cache.apply_invalidation(ev.arg, ev.time)
        elif kind == "dei":
            self.estimator.on_due(ev.arg, ev.time)
        else:
            raise RuntimeError(f"unknown event kind {kind!r}")

    def _handle_arrival(self, conn: int, now: float) -> None:
        self.engine.schedule(now + self._next_gap[conn](), "op", conn)
        self.op_arrivals += 1
        op = self.ops.next_op()
        if op.kind == "update":
            lat = self._handle_update(op.target, op.new_value, now)
        else:
            lat = self._handle_request(op.kind, op.target, now)
        # The response lands at now + lat; it completes if that is inside the run.
        if now + lat <= self.spec.duration:
            self.completed += 1
            self.latency_sum += lat

    def _handle_request(self, op_kind: str, target: int, now: float) -> float:
        values = self.world.values
        unit = self.unit_for(op_kind, target)
        if op_kind == "query":
            q = self.world.queries[target]
            lo, hi = q.lo, q.hi
        else:
            lo, hi = read_range(values, target)

        outcome = self.cache.lookup(unit, now)
        self.telemetry.record_request(unit, now, miss=outcome is Lookup.MISS)

        if outcome is Lookup.MISS:
            result_keys = evaluate_query(values, lo, hi)
            serve_id = self._serve_seq
            self._serve_seq += 1
            ttl = self.estimator.decide(serve_id, unit, result_keys, now)
            # first: the oracle rejects a bad bound before the cache changes
            self.telemetry.oracle.on_serve(serve_id, unit, lo, hi, now, ttl)
            self.cache.insert(unit, serve_id, ttl, now)
            lat = self.latency.miss_latency
        else:
            lat = self.latency.hit_latency

        if self.trace_writer is not None:
            self.trace_writer((now, op_kind, unit, outcome.value, lat))
        return lat

    def _handle_update(self, key: int, new_value: float, now: float) -> float:
        values = self.world.values
        old = float(values[key])
        values[key] = new_value
        self.telemetry.record_write(key, now)
        resolved = self.telemetry.oracle.on_write(old, new_value, now)
        for serve_id in self.cache.origin_update(resolved, now):
            self.engine.schedule(now + self.latency.invalidation_delay, "inval", serve_id)
            self.estimator.on_invalidation_issued(serve_id, now)
        if self.trace_writer is not None:
            self.trace_writer((now, "update", self.unit_for("update", key), "write", self.latency.miss_latency))
        return self.latency.miss_latency

    # -- results -----------------------------------------------------------

    @property
    def achieved_throughput(self) -> float:
        return self.op_arrivals / self.spec.duration

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.completed if self.completed else 0.0

    def hottest_missed_query(self) -> int | None:
        """Query unit with the most cache misses (for --trace-query auto);
        ties break toward the smallest id. Each miss is one serve."""
        units = np.asarray(self.telemetry.oracle.units)
        misses = np.bincount(units[units < self.spec.query_count], minlength=1)
        best = int(misses.argmax())
        return best if misses[best] else None
