"""Discrete-event core and the simulation that wires everything together.

A Simulation is one run, built from an ExperimentConfig, a write fraction, an
estimator kind and a seed, the one place that wires a run's parts: its
estimator gets the run's write rates, cache load and scheduler, and the run's
AGENT stream (`workload.run_stream`), so policy noise never perturbs the
workload. A write goes to the world's own rule, `World.write`, which returns
the units it touches for the oracle and the cache.

Virtual time is a float starting at 0, and a run is a pure function of
(config, seed). There are two kinds of event:
- a client op, one of each of the `workload.CONNECTIONS` open-loop
  connections' arrivals. Ops never depend on the estimator, so the run's op
  timeline is computed ahead from the run seed, a chunk at a time
  (`workload.op_timeline`), and each op goes to the simulation by a direct
  call.
  Ops go by time alone: the n-th arrival carries the n-th op, so ops at equal
  times are interchangeable.
- a heap event: "inval", the delayed purge, carrying the cache entry a write
  marked, or "dei", a transition coming due, carrying its serve id. Heap
  events go by (time, sequence number), so simultaneous ones dispatch in
  scheduling order.
At equal times a heap event goes before an op, so a purge scheduled with no
delay lands before any op tied with the write that issued it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from .cachesys import CacheSystem, Lookup
from .estimators import make_estimator
from .telemetry import Telemetry
from .workload import AGENT, WORLD, generate_world, op_timeline, require_finite, run_stream

if TYPE_CHECKING:
    from .config import ExperimentConfig

# What the timeline yields once it has no op left: a time no run reaches.
_NO_OP = (math.inf, None)


class SimEvent(NamedTuple):
    time: float
    seq: int
    kind: str
    arg: object  # an "inval"'s CacheEntry, a "dei"'s serve id


class Engine:
    """Event loop over an op timeline and a binary heap of other events.

    The timeline yields (time, op) in time order, and each op goes to
    `on_op(time, op)`; the heap's events go to `handler`, in (time, sequence
    number) order, the number counting the events scheduled. At equal times
    a heap event goes before an op, so an event that an op schedules at its
    own time lands before the next op at that time. An engine built without
    a timeline walks an empty one.
    """

    def __init__(
        self,
        handler: Callable[[SimEvent], None] | None = None,
        timeline: Iterable[tuple[float, object]] = (),
        on_op: Callable[[float, object], None] | None = None,
    ):
        self.handler = handler
        self.now = 0.0
        self._heap: list[SimEvent] = []
        self._ops = iter(timeline)
        self._next_op: tuple[float, object] | None = None  # pulled by run_until, not here
        self._on_op = on_op
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: float, kind: str, arg: object) -> None:
        """Push event `kind` with its payload `arg` (see SimEvent) at `time`."""
        if not (self.now <= time < math.inf):
            raise ValueError(
                f"cannot schedule {kind!r} at {time}: not finite or before now={self.now}"
            )
        heapq.heappush(self._heap, SimEvent(time, self._seq, kind, arg))
        self._seq += 1

    def run_until(self, t_end: float) -> int:
        """Dispatch every op and event with time <= t_end; clock lands on t_end.
        The first op past t_end waits for the next call, so a run made of many
        short calls walks the timeline once, as one call does."""
        if not t_end < math.inf:  # inf or NaN: the end of the timeline is no bound
            raise ValueError(f"t_end {t_end} is not finite")
        if t_end < self.now:
            raise ValueError(f"t_end {t_end} is in the past (now={self.now})")
        heap, handler, on_op, ops = self._heap, self.handler, self._on_op, self._ops
        pop = heapq.heappop
        n = 0
        t, op = next(ops, _NO_OP) if self._next_op is None else self._next_op
        while True:
            # the heap's events up to the next op's time go first
            limit = t if t < t_end else t_end
            while heap and heap[0][0] <= limit:
                ev = pop(heap)
                self.now = ev.time
                handler(ev)
                n += 1
            if t > t_end:
                break
            self.now = t
            on_op(t, op)
            n += 1
            t, op = next(ops, _NO_OP)
        self._next_op = (t, op)
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

    Cacheable units share the world's id space: range query q is unit q, a
    point read of key k is unit `World.first_key_unit` + k. A query's miss
    hands the estimator its result keys, the world's QueryIndex list itself,
    which each update keeps current; a read's miss hands it [k]. An update
    applies the world's write rule, `World.write`, and hands the units it
    touches to the oracle and the cache.

    A query or read is served in one frame, `_handle_arrival`: the cache
    lookup, the estimator's `on_request` (a no-op unless it is a learner),
    and on a miss the estimator's TTL, the oracle's record and the insert.
    The latencies, the run's end and the first key unit are read once, when
    the simulation is built. `estimator_kind` may be any kind that
    `make_estimator` builds, listed in `cfg.estimators` or not: the config
    checked every estimator option when it was built.

    Two optional callbacks take a run's per-event rows as they happen:
    `trace_writer` each request's (time, kind, unit, outcome, latency), and
    `replay_writer`, a learner's `on_inject`, each injected transition's
    (serve_id, unit, decided_at, due_at, action, reward). The run keeps no
    row of either.
    """

    def __init__(
        self,
        cfg: ExperimentConfig,
        write_fraction: float,
        estimator_kind: str,
        seed: int,
        trace_writer: Callable[[tuple], None] | None = None,
        replay_writer: Callable[[tuple], None] | None = None,
    ):
        self.spec = spec = cfg.workload_spec(write_fraction)
        self.trace_writer = trace_writer
        lat = cfg.latency
        self._hit_latency = lat.hit_latency
        self._miss_latency = lat.miss_latency
        self._invalidation_delay = lat.invalidation_delay
        self._duration = spec.duration

        self.world = generate_world(spec, run_stream(seed, WORLD))
        self._first_key_unit = self.world.first_key_unit
        timeline = op_timeline(spec, seed)
        self.engine = Engine(self._dispatch, timeline, self._handle_arrival)
        self.cache = CacheSystem(cfg.capacity)
        self.telemetry = Telemetry(cfg.telemetry_window)

        self.op_arrivals = 0
        self.completed = 0
        self.latency_sum = 0.0
        self._serve_seq = 0
        self.estimator = make_estimator(
            estimator_kind, cfg, rng=run_stream(seed, AGENT),
            window=cfg.telemetry_window, load_threshold=1.0 - spec.write_fraction,
            write_rates=self.telemetry.write_rates, current_load=self.cache.current_load,
            schedule=self.engine.schedule, on_inject=replay_writer)

    def run(self) -> "Simulation":
        """Run to the end of the workload, once. When this returns or raises,
        the engine holds no callback into the simulation, so nothing refers
        back to it: a finished run is freed by reference counting as soon as
        its last name goes, with no wait for the cyclic collector. Its
        results stay readable."""
        engine = self.engine
        try:
            engine.run_until(self.spec.duration)
        finally:
            engine.handler = engine._on_op = None
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
            # the id rule: query q is unit q; a read of key k, unit first_key_unit + k
            unit = target if kind == "query" else self._first_key_unit + target
            outcome = self.cache.lookup(unit, now)
            miss = outcome is Lookup.MISS
            self.estimator.on_request(unit, now, miss)
            if miss:
                serve_id = self._serve_seq
                self._serve_seq += 1
                result_keys = self.world.index.results[target] if kind == "query" else [target]
                ttl = self.estimator.decide(serve_id, unit, result_keys, now)
                self.telemetry.oracle.on_serve(serve_id, unit, now, ttl)
                self.cache.insert(unit, serve_id, ttl, now)
                lat = self._miss_latency
            else:
                lat = self._hit_latency
            if self.trace_writer is not None:
                self.trace_writer((now, kind, unit, outcome, lat))
        # The response lands at now + lat; it completes if that is inside the run.
        if now + lat <= self._duration:
            self.completed += 1
            self.latency_sum += lat

    def _handle_update(self, key: int, new_value: float, now: float) -> float:
        """Write key's new value; the last unit it touches is the key's read unit."""
        touched = self.world.write(key, new_value)
        self.telemetry.record_write(key, now)
        self.telemetry.oracle.on_write(touched, now)
        for entry in self.cache.origin_update(touched, now):
            self.engine.schedule(now + self._invalidation_delay, "inval", entry)
            self.estimator.on_invalidation_issued(entry.serve_id, now)
        if self.trace_writer is not None:
            self.trace_writer((now, "update", touched[-1], "write", self._miss_latency))
        return self._miss_latency

    # -- results -----------------------------------------------------------

    @property
    def achieved_throughput(self) -> float:
        return self.op_arrivals / self.spec.duration

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.completed if self.completed else 0.0
