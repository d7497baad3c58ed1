"""Discrete-event core and the simulation that wires everything together.

A Simulation is one run, built from an ExperimentConfig, a write fraction, an
estimator kind and a seed. It builds its estimator last, from the same config,
so the estimator is bound from the start to the run's clock, cache, telemetry
and agent RNG.

Virtual time is a float starting at 0. Events are totally ordered by
(time, sequence number), so simultaneous events dispatch in scheduling order
and a run is a pure function of (config, seed). There are two kinds of event:
- a client op, one of each of the `workload.connections` open-loop
  connections' arrivals. Ops never depend on the estimator, so the run's op
  timeline is computed ahead, a chunk at a time (`workload.arrival_chunks` and
  `workload.OpStream`), and each op goes to the simulation by a direct call.
  An op's sequence number is the engine counter's value when the previous op
  of its connection was dispatched (connection c's first op has c), the
  number it would get if each arrival were scheduled when its predecessor is
  dispatched.
- a heap event, carrying one serve id: "inval" (the delayed purge) or "dei"
  (a transition coming due).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

import numpy as np

from .cachesys import CacheSystem, Lookup
from .estimators import make_estimator
from .telemetry import Telemetry
from .workload import (
    OpStream,
    arrival_chunks,
    evaluate_query,
    generate_world,
    read_range,
    require_finite,
)

if TYPE_CHECKING:
    from .config import ExperimentConfig

# What the timeline yields once it has no op left: a time no run reaches.
_NO_OP = (math.inf, -1, None)


class SimEvent(NamedTuple):
    time: float
    seq: int
    kind: str
    arg: int  # the serve id of an "inval" or "dei"


class Engine:
    """Event loop over an op timeline and a binary heap of other events.

    The timeline yields (time, connection, op) in dispatch order, and each op
    goes to `on_op(time, op)`; the heap's events go to `handler`. Their
    sequence numbers come from one counter, which advances once per op
    dispatched and once per event scheduled. An engine built without a
    timeline walks an empty one.
    """

    def __init__(
        self,
        handler: Callable[[SimEvent], None] | None = None,
        timeline: Iterable[tuple[float, int, object]] = (),
        on_op: Callable[[float, object], None] | None = None,
        connections: int = 0,
    ):
        self.handler = handler
        self.now = 0.0
        self._heap: list[SimEvent] = []
        self._ops = iter(timeline)
        self._on_op = on_op
        # the sequence number of each connection's next op
        self._op_seq = list(range(connections))
        self._seq = connections

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
        """Dispatch every op and event with time <= t_end; clock lands on t_end."""
        if not t_end < math.inf:  # inf or NaN: the end of the timeline is no bound
            raise ValueError(f"t_end {t_end} is not finite")
        if t_end < self.now:
            raise ValueError(f"t_end {t_end} is in the past (now={self.now})")
        heap, handler, on_op, op_seq, ops = self._heap, self.handler, self._on_op, self._op_seq, self._ops
        pop = heapq.heappop
        n = 0
        t, conn, op = next(ops, _NO_OP)
        while True:
            due = t <= t_end
            # the heap's events that come first go first
            bound = (t, op_seq[conn]) if due else (t_end, math.inf)
            while heap and heap[0] < bound:
                ev = pop(heap)
                self.now = ev.time
                handler(ev)
                n += 1
            if not due:
                break
            self.now = t
            op_seq[conn] = self._seq
            self._seq += 1
            on_op(t, op)
            n += 1
            t, conn, op = next(ops, _NO_OP)
        self._ops = chain(((t, conn, op),), ops)  # the first op past t_end waits
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
        if estimator_kind not in cfg.estimators:
            # its option is checked only for the kinds in cfg.estimators
            raise ValueError(
                f"estimator {estimator_kind!r} is not in cfg.estimators {cfg.estimators}"
            )
        self.spec = spec = cfg.workload_spec(write_fraction)
        self.latency = cfg.latency
        self.trace_writer = trace_writer

        ss = np.random.SeedSequence(seed)
        world_ss, ops_ss, arrivals_ss, agent_ss = ss.spawn(4)
        # Handed to the estimator so policy noise never perturbs the workload.
        self.agent_rng = np.random.default_rng(agent_ss)

        self.world = generate_world(spec, np.random.default_rng(world_ss))
        arrivals = arrival_chunks(
            [np.random.default_rng(s) for s in arrivals_ss.spawn(spec.connections)],
            spec.connections / spec.target_throughput,
        )
        ops = iter(OpStream(spec, np.random.default_rng(ops_ss)))
        # the n-th arrival carries the n-th op
        timeline = chain.from_iterable(zip(times, conns, ops) for times, conns in arrivals)
        self.engine = Engine(self._dispatch, timeline, self._handle_arrival, spec.connections)
        self.cache = CacheSystem(cfg.capacity)
        self.telemetry = Telemetry(cfg.telemetry_window)

        self.op_arrivals = 0
        self.completed = 0
        self.latency_sum = 0.0
        self._serve_seq = 0
        # last: the estimator reads the parts above
        self.estimator = make_estimator(estimator_kind, cfg, self, log_transitions)

    def unit_for(self, op_kind: str, target: int) -> int:
        return target if op_kind == "query" else self.spec.query_count + target

    def run(self) -> "Simulation":
        self.engine.run_until(self.spec.duration)
        return self

    # -- event handlers ----------------------------------------------------

    def _dispatch(self, ev: SimEvent) -> None:
        kind = ev.kind
        if kind == "inval":
            self.cache.apply_invalidation(ev.arg, ev.time)
        elif kind == "dei":
            self.estimator.on_due(ev.arg, ev.time)
        else:
            raise RuntimeError(f"unknown event kind {kind!r}")

    def _handle_arrival(self, now: float, op: tuple[str, int, float]) -> None:
        self.op_arrivals += 1
        kind, target, new_value = op
        if kind == "update":
            lat = self._handle_update(target, new_value, now)
        else:
            lat = self._handle_request(kind, target, now)
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
