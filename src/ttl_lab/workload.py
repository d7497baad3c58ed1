"""YCSB-style workload: a record table, range queries, the operation mixture
and the client arrivals.

Records are keyed by dense integers [0, record_count) and carry a single numeric
value drawn uniformly from [0, record_count). Range queries are half-open
intervals [lo, hi) over that value, constructed so that each query initially
matches an exact target cardinality. Updates resample a record's value, which
is what moves records in and out of query results over time.

Neither the ops nor their arrival times depend on what the cache or the
estimator does, so both are computed ahead, a block at a time, and each value
is the one a per-value numpy call would give; only the generators' final
states differ, because the last block is drawn past the run's end:
- `OpStream` decodes a block of uniforms (`rng.random(n)`) into op columns,
  using the uniforms in draw order;
- `arrival_chunks` merges the connections' arrival times, each connection
  the running sum of its own `exponential` gaps, into one time-ordered column.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict, deque
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Iterator, NamedTuple

import numpy as np

# Uniforms the op stream draws per numpy call; an op uses two or three.
_OP_BLOCK = 2048
# Arrivals merged per chunk, summed over the connections.
_ARRIVAL_CHUNK = 2048
# The op kinds by the code the op decoder gives them; indexing an object
# array hands out these three strings, not copies.
_KINDS = np.array(["update", "query", "read"], dtype=object)


def require_finite(section) -> None:
    """Reject a NaN or infinite float field of a config dataclass.

    NaN passes every comparison-based range check and inf passes the lower
    bounds, so each section's __post_init__ starts here.
    """
    for f in fields(section):
        v = getattr(section, f.name)
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{f.name} must be a finite number, got {v}")


@dataclass(frozen=True)
class WorkloadSpec:
    """Knobs for one workload cell, checked when built; defaults are desk-scale."""

    record_count: int = 2000
    query_count: int = 200
    write_fraction: float = 0.1
    query_fraction: float = 0.9
    zipf_s: float = 0.6
    scan_mean: float = 10.0
    scan_std: float = 5.0
    result_cap: int = 20
    target_throughput: float = 200.0
    connections: int = 60  # open-loop Poisson streams sharing target_throughput
    duration: float = 300.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.record_count < 1:
            raise ValueError("record_count must be >= 1")
        if self.query_count < 1:
            raise ValueError("query_count must be >= 1")
        if not (0.0 <= self.write_fraction <= 1.0):
            raise ValueError("write_fraction must be in [0, 1]")
        if not (0.0 <= self.query_fraction <= 1.0):
            raise ValueError("query_fraction must be in [0, 1]")
        if self.write_fraction + self.query_fraction > 1.0 + 1e-12:
            raise ValueError("write_fraction + query_fraction must not exceed 1")
        if self.zipf_s < 0.0:
            raise ValueError("zipf_s must be >= 0")
        if self.scan_mean < 0.0:
            raise ValueError("scan_mean must be >= 0")
        if self.scan_std < 0.0:
            raise ValueError("scan_std must be >= 0")
        if not (1 <= self.result_cap <= self.record_count):
            raise ValueError("result_cap must be in [1, record_count]")
        if self.target_throughput <= 0.0:
            raise ValueError("target_throughput must be positive")
        if self.connections < 1:
            raise ValueError("connections must be >= 1")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")


class ZipfSampler:
    """Zipf(s) ranks over {1..n} via a precomputed cumulative table.

    P(rank = k) is proportional to k**-s; s = 0 degenerates to uniform.
    OpStream draws a rank as one uniform u and takes
    `np.searchsorted(cdf, u, side="right")`: the count of table entries <= u.
    """

    def __init__(self, n: int, s: float):
        if n < 1:
            raise ValueError("n must be >= 1")
        if s < 0.0:
            raise ValueError("s must be >= 0")
        self.n = n
        self.s = s
        weights = np.arange(1, n + 1, dtype=np.float64) ** -s
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        self.cdf = cdf

    def pmf(self) -> np.ndarray:
        """Exact probabilities, index k-1 holds P(rank = k)."""
        return np.diff(self.cdf, prepend=0.0)


class QueryDef(NamedTuple):
    id: int
    lo: float
    hi: float


@dataclass
class World:
    """Mutable record store plus the fixed query set for one run."""

    values: np.ndarray
    queries: list[QueryDef]


def evaluate_query(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Keys whose current value lies in [lo, hi), ascending."""
    return np.nonzero((values >= lo) & (values < hi))[0]


def read_range(values: np.ndarray, key: int) -> tuple[float, float]:
    """The singleton range a point read of `key` maps to."""
    v = float(values[key])
    return v, math.nextafter(v, math.inf)


def generate_world(spec: WorkloadSpec, rng: np.random.Generator) -> World:
    """Build the record table and a query set with exact initial cardinalities.

    Each query's target size is round(N(scan_mean, scan_std)) clamped to
    [1, result_cap]; the [lo, hi) bounds are cut from the sorted value array so
    the query matches exactly that many records at t=0.
    """
    n = spec.record_count
    values = rng.uniform(0.0, float(n), size=n)
    if len(np.unique(values)) != n:
        # One collision in ~2^53/n draws; regenerating keeps cardinalities exact.
        values = rng.uniform(0.0, float(n), size=n)
        if len(np.unique(values)) != n:
            raise RuntimeError("record values collided twice; RNG is suspect")

    sizes = np.rint(rng.normal(spec.scan_mean, spec.scan_std, size=spec.query_count))
    sizes = np.clip(sizes, 1, spec.result_cap).astype(np.int64)

    sorted_vals = np.sort(values)
    queries: list[QueryDef] = []
    for qid in range(spec.query_count):
        size = int(sizes[qid])
        start = int(rng.integers(0, n - size + 1))
        lo = float(sorted_vals[start])
        if start + size < n:
            hi = float(sorted_vals[start + size])
        else:
            hi = float(sorted_vals[-1]) + 1.0
        queries.append(QueryDef(qid, lo, hi))
    return World(values=values, queries=queries)


@dataclass
class OpStream:
    """Draws the operation mixture; key and query popularity are Zipfian.

    Rank r maps to id r-1, so id 0 is the hottest key/query. Each op takes one
    uniform for its kind, one for its Zipf rank and, for an update, one for the
    new value, in that order from a stream of `_OP_BLOCK`-sized blocks. An op
    whose uniforms straddle the end of a block is decoded with the next one.
    """

    spec: WorkloadSpec
    rng: np.random.Generator
    _keys: ZipfSampler = field(init=False)
    _queries: ZipfSampler = field(init=False)

    def __post_init__(self) -> None:
        self._keys = ZipfSampler(self.spec.record_count, self.spec.zipf_s)
        self._queries = ZipfSampler(self.spec.query_count, self.spec.zipf_s)

    def __iter__(self) -> Iterator[tuple[str, int, float]]:
        """Every op in draw order, as (kind, target, new value)."""
        return chain.from_iterable(zip(*cols) for cols in self.blocks())

    def blocks(self) -> Iterator[tuple[list[str], list[int], list[float]]]:
        """Successive blocks of ops as columns: the kinds ("update", "query" or
        "read"), the targets (a key, or a query id for a query) and the new
        values (NaN for an op that is not an update)."""
        spec = self.spec
        w, wq = spec.write_fraction, spec.write_fraction + spec.query_fraction
        u = np.empty(0)
        while True:
            u = np.concatenate((u, self.rng.random(_OP_BLOCK)))
            # An op starts where the previous one ended: 3 uniforms after an
            # update's start, 2 after any other. Every start found here has
            # three uniforms left in the block; the rest carry over.
            update = (u < w).tobytes()
            starts, p, last = [], 0, len(u) - 3
            while p <= last:
                starts.append(p)
                p += 2 + update[p]
            s = np.fromiter(starts, np.intp, len(starts))
            kind_u, rank_u = u[s], u[s + 1]
            code = (kind_u >= w).astype(np.intp) + (kind_u >= wq)  # 0 update, 1 query, 2 read
            targets = np.searchsorted(self._keys.cdf, rank_u, side="right")
            query = code == 1
            targets[query] = np.searchsorted(self._queries.cdf, rank_u[query], side="right")
            # rng.uniform(0.0, n) computes 0.0 + n * rng.random(): the same float
            values = np.where(code == 0, spec.record_count * u[s + 2], np.nan)
            yield _KINDS[code].tolist(), targets.tolist(), values.tolist()
            u = u[p:]


def arrival_chunks(
    rngs: list[np.random.Generator], mean_gap: float
) -> Iterator[tuple[list[float], list[int]]]:
    """The arrivals of open-loop Poisson connections, one generator each, as
    successive chunks of (times, connections) in dispatch order.

    A connection's arrival times are the running sums of its exponential gaps
    (mean `mean_gap`) from 0, so the first arrival is the first gap. Chunk k
    holds the arrivals before k times a fixed span: first, each connection
    whose last drawn time falls short of that bound draws blocks of gaps until
    it does not, so no later draw can precede the bound.

    Arrivals at equal times go in the order of the connections' previous
    arrivals, and the first arrivals in connection order: the order an event
    heap gives when each arrival is scheduled at its predecessor's dispatch.
    """
    n = len(rngs)
    per_conn = max(16, _ARRIVAL_CHUNK // n)  # each connection's arrivals per chunk, on average
    block = 2 * per_conn
    span = per_conn * mean_gap
    last = np.zeros(n)  # each connection's last drawn time
    times, conns = np.empty(0), np.empty(0, dtype=np.intp)
    last_pos = np.arange(n) - n  # each connection's previous arrival's position
    pos, bound = 0, 0.0
    while True:
        bound += span
        while (short := np.flatnonzero(last < bound)).size:
            sums = np.empty((short.size, block + 1))
            sums[:, 0] = last[short]
            for row, i in zip(sums, short.tolist()):
                row[1:] = rngs[i].exponential(mean_gap, block)
            # add.accumulate adds left to right: each time is the last one plus a gap
            np.cumsum(sums, axis=1, out=sums)
            last[short] = sums[:, -1]
            times = np.concatenate((times, sums[:, 1:].ravel()))
            conns = np.concatenate((conns, np.repeat(short, block)))
        ready = times < bound
        t, c = times[ready], conns[ready]
        times, conns = times[~ready], conns[~ready]
        order = np.argsort(t)
        t, c = t[order], c[order]
        if len(t) > 1 and (t[1:] == t[:-1]).any():
            order = _order_ties(t.tolist(), c.tolist(), last_pos, pos)
            t, c = t[order], c[order]
        np.maximum.at(last_pos, c, np.arange(pos, pos + len(c)))
        pos += len(c)
        yield t.tolist(), c.tolist()


def _order_ties(times: list[float], conns: list[int], last_pos: np.ndarray, pos: int) -> list[int]:
    """The dispatch order of a time-sorted chunk whose first arrival takes
    position `pos`: within each run of equal times, the arrival whose
    connection's previous arrival came first goes first."""
    last = last_pos.tolist()
    order: list[int] = []
    i = 0
    while i < len(times):
        j = i + 1
        while j < len(times) and times[j] == times[i]:
            j += 1
        tied: dict[int, deque[int]] = defaultdict(deque)
        for k in range(i, j):
            tied[conns[k]].append(k)
        heap = [(last[conn], conn) for conn in tied]
        heapq.heapify(heap)
        while heap:
            _, conn = heapq.heappop(heap)
            order.append(tied[conn].popleft())
            last[conn] = pos
            pos += 1
            if tied[conn]:  # a zero gap: its next arrival ties too
                heapq.heappush(heap, (last[conn], conn))
        i = j
    return order
