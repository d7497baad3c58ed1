"""YCSB-style workload: a record table, range queries, the operation mixture
and the client arrivals.

Records are keyed by dense integers [0, record_count) and carry a single numeric
value drawn uniformly from [0, record_count). Range queries are half-open
intervals [lo, hi) over that value, constructed so that each query initially
matches an exact target cardinality. Updates resample a record's value, which
is what moves records in and out of query results over time.

The query set never changes, so one `QueryIndex` per world holds each
query's result keys and a fixed grid of value buckets over the query ranges.
`World.write` is the one write rule: it sets the record's value, moves its
key between results through the index and returns the cacheable units the
write touches, the queries holding its old or new value and then the point
read of the record itself.

A run's random streams are named by role (`WORLD`, `OPS`, `ARRIVALS`,
`AGENT`) and built from the run seed alone by `run_stream`, so any of them
can be drawn again, in any order, without the rest of the run.

Neither the ops nor their arrival times depend on what the cache or the
estimator does, so `op_timeline` computes a run's (time, op) pairs ahead, a
block at a time, and each value is the one a per-value numpy call would
give; only the generators' final states differ, because the last block is
drawn past the run's end:
- `op_blocks` decodes a block of uniforms (`rng.random(n)`) into op columns,
  using the uniforms in draw order; `op_stream` gives its ops one at a time;
- `arrival_chunks` merges the connections' arrival times, each connection
  the running sum of its own `exponential` gaps, into one ascending column:
  each round every connection draws one block of gaps, and every time below
  the slowest connection's last one goes out, the rest carrying over.
  Ops are matched to arrivals by position alone, so arrivals at equal times
  carry the same ops in either order.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, fields
from itertools import chain
from typing import Iterator, NamedTuple

import numpy as np

# Uniforms the op stream draws per numpy call; an op uses two or three.
_OP_BLOCK = 2048
# Gaps each connection draws per numpy call.
_GAP_BLOCK = 68
# Open-loop Poisson connections sharing target_throughput. Their merged
# arrivals are one Poisson process of that rate whatever their number, so
# the count changes only which draws a run uses, not the workload it models.
CONNECTIONS = 60
# The op kinds by the code the op decoder gives them; indexing an object
# array hands out these three strings, not copies.
_KINDS = np.array(["update", "query", "read"], dtype=object)
# The roles of a run's random streams: the world's values and queries, the
# op stream, the connections' arrivals and the estimator's own draws.
WORLD, OPS, ARRIVALS, AGENT = range(4)


def run_stream(seed: int, *key: int) -> np.random.Generator:
    """The generator of a run's stream `key`: a role, and for ARRIVALS a
    connection. Stream (role,) is the role-th child that
    `SeedSequence(seed).spawn(4)` gives and (ARRIVALS, c) the c-th child of
    that child's `spawn(CONNECTIONS)`, but no sequence is spawned from, so
    the same key always gives the same stream."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


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
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")


def zipf_cdf(n: int, s: float) -> np.ndarray:
    """The cumulative table of Zipf(s) ranks over {1..n}: entry k-1 is
    P(rank <= k), where P(rank = k) is proportional to k**-s; s = 0
    degenerates to uniform. `op_blocks` draws a rank as one uniform u and
    takes `np.searchsorted(cdf, u, side="right")`, the count of entries <= u,
    which is the rank's id; `np.diff(cdf, prepend=0.0)` is the pmf."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if s < 0.0:
        raise ValueError("s must be >= 0")
    cdf = np.cumsum(np.arange(1, n + 1, dtype=np.float64) ** -s)
    cdf /= cdf[-1]
    return cdf


class QueryDef(NamedTuple):
    id: int
    lo: float
    hi: float


# Bucket width in value units. Record values are uniform on [0, record_count),
# one record per unit at every preset, and a query holds at most result_cap
# (20) records, so its range spans 1-3 buckets. Narrow buckets register a
# range in more of them, wide ones hold more ranges to test per write. Any
# width gives the same touched lists, since a bucket lists its queries in id
# order. Replaying the 17,885 `move` calls of a paper-scale run (w = 0.3,
# 60 s, seed 1) on a shared 2-core Xeon VM took, in ms (median of 41
# interleaved replays, quartiles): width 4 49 (44-60), 8 47 (44-58),
# 16 49 (47-51), 32 54 (52-59), 64 62 (61-86); 4 to 16 are within the spread.
_WIDTH = 16.0


class QueryIndex:
    """Each fixed query's result keys, kept current as records move.

    `results[q]` holds the keys whose value lies in query q's [lo, hi),
    ascending. Each query is registered in every bucket of width _WIDTH that
    its range overlaps, in query order, so the queries holding a value are
    found in the bucket of that value alone. The grid is built once.
    """

    def __init__(self, queries: list[QueryDef], results: list[list[int]]):
        if len(results) != len(queries):
            raise ValueError(f"{len(queries)} queries but {len(results)} results")
        # keyed by int: a float bucket number v // _WIDTH finds the same entry
        buckets: dict[int, list[QueryDef]] = {}
        for i, query in enumerate(queries):
            q, lo, hi = query
            if q != i:
                raise ValueError(f"query {i} has id {q}: ids must be dense, in order")
            if not -math.inf < lo < math.inf:
                raise ValueError(f"query {q}: range bound lo {lo} is not finite")
            if not -math.inf < hi < math.inf:
                raise ValueError(f"query {q}: range bound hi {hi} is not finite")
            if hi <= lo:
                raise ValueError(f"query {q}: empty range [{lo}, {hi})")
            for b in range(int(lo // _WIDTH), int(hi // _WIDTH) + 1):
                bucket = buckets.get(b)
                if bucket is None:
                    buckets[b] = [query]
                else:
                    bucket.append(query)
        self._buckets = buckets
        self.results = results

    def move(self, key: int, old: float, new: float) -> list[int]:
        """Move `key` from value `old` to `new`: out of the results of every
        query holding old, into those of every query holding new. Returns the
        ids of the queries holding old or new, each once: the queries the
        move touches."""
        get, results = self._buckets.get, self.results
        out = [q for q, lo, hi in get(old // _WIDTH, ()) if lo <= old < hi]
        into = [q for q, lo, hi in get(new // _WIDTH, ()) if lo <= new < hi]
        for q in out:
            if q not in into:
                results[q].remove(key)  # raises if key is not in the result
        for q in into:
            if q not in out:
                insort(results[q], key)
                out.append(q)
        return out


@dataclass
class World:
    """Mutable record store plus the fixed query set and its index for one run.

    Cacheable units share one id space: range query q is unit q, and the
    point read of key k is unit `first_key_unit + k`, after every query.
    """

    values: np.ndarray
    queries: list[QueryDef]
    index: QueryIndex

    def __post_init__(self) -> None:
        self.first_key_unit = len(self.queries)

    def write(self, key: int, new: float) -> list[int]:
        """Set `key`'s value to `new` and move the key through the index.
        Returns the units the write touches, each once: the queries holding
        the old or the new value, then the read unit of `key`."""
        old = float(self.values[key])
        self.values[key] = new
        touched = self.index.move(key, old, new)
        touched.append(self.first_key_unit + key)
        return touched


def evaluate_query(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Keys whose current value lies in [lo, hi), ascending: a scan of every
    value, the reference QueryIndex is checked against. No run calls it."""
    return np.nonzero((values >= lo) & (values < hi))[0]


def generate_world(spec: WorkloadSpec, rng: np.random.Generator) -> World:
    """Build the record table and a query set with exact initial cardinalities.

    Each query's target size is round(N(scan_mean, scan_std)) clamped to
    [1, result_cap]; the [lo, hi) bounds are cut from the sorted value array so
    the query matches exactly that many records at t=0, and its result keys
    are the keys of that cut.
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

    order = np.argsort(values)
    sorted_vals = values[order]
    keys = order.tolist()
    queries: list[QueryDef] = []
    results: list[list[int]] = []
    for qid in range(spec.query_count):
        size = int(sizes[qid])
        start = int(rng.integers(0, n - size + 1))
        lo = float(sorted_vals[start])
        if start + size < n:
            hi = float(sorted_vals[start + size])
        else:
            hi = float(sorted_vals[-1]) + 1.0
        queries.append(QueryDef(qid, lo, hi))
        cut = keys[start : start + size]
        cut.sort()
        results.append(cut)
    return World(values=values, queries=queries, index=QueryIndex(queries, results))


def op_blocks(spec: WorkloadSpec,
              rng: np.random.Generator) -> Iterator[tuple[list[str], list[int], list[float]]]:
    """The operation mixture in successive blocks of ops, as columns: the
    kinds ("update", "query" or "read"), the targets (a key, or a query id for
    a query) and the new values (NaN for an op that is not an update).

    Key and query popularity are Zipfian: rank r maps to id r-1, so id 0 is
    the hottest key/query. Each op takes one uniform for its kind, one for its
    Zipf rank and, for an update, one for the new value, in that order from a
    stream of `_OP_BLOCK`-sized blocks. An op whose uniforms straddle the end
    of a block is decoded with the next one.
    """
    keys = zipf_cdf(spec.record_count, spec.zipf_s)
    queries = zipf_cdf(spec.query_count, spec.zipf_s)
    w, wq = spec.write_fraction, spec.write_fraction + spec.query_fraction
    u = np.empty(0)
    while True:
        u = np.concatenate((u, rng.random(_OP_BLOCK)))
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
        targets = np.searchsorted(keys, rank_u, side="right")
        query = code == 1
        targets[query] = np.searchsorted(queries, rank_u[query], side="right")
        # rng.uniform(0.0, n) computes 0.0 + n * rng.random(): the same float
        values = np.where(code == 0, spec.record_count * u[s + 2], np.nan)
        yield _KINDS[code].tolist(), targets.tolist(), values.tolist()
        u = u[p:]


def op_stream(spec: WorkloadSpec, rng: np.random.Generator) -> Iterator[tuple[str, int, float]]:
    """Every op of `op_blocks` in draw order, as (kind, target, new value)."""
    return chain.from_iterable(zip(*cols) for cols in op_blocks(spec, rng))


def arrival_chunks(rngs: list[np.random.Generator], mean_gap: float) -> Iterator[list[float]]:
    """The arrival times of open-loop Poisson connections, one generator each,
    merged into successive ascending chunks.

    A connection's arrival times are the running sums of its exponential gaps
    (mean `mean_gap`) from 0, so the first arrival is the first gap. Each
    round every connection draws `_GAP_BLOCK` more gaps. No later time can
    fall below the smallest of the connections' last times, so the round's
    chunk is every time drawn and not yet given that lies below it; the rest
    carry over to the next round.

    The n-th arrival carries the n-th op, whatever its connection, so arrivals
    at equal times are interchangeable and their order needs no rule.
    """
    sums = np.zeros((len(rngs), _GAP_BLOCK + 1))  # column 0: each connection's last time
    times = np.empty(0)
    while True:
        sums[:, 0] = sums[:, -1]
        for row, rng in zip(sums, rngs):
            row[1:] = rng.exponential(mean_gap, _GAP_BLOCK)
        # add.accumulate adds left to right: each time is the last one plus a gap
        np.cumsum(sums, axis=1, out=sums)
        times = np.concatenate((times, sums[:, 1:].ravel()))
        ready = times < sums[:, -1].min()
        yield np.sort(times[ready]).tolist()
        times = times[~ready]


def op_timeline(spec: WorkloadSpec, seed: int) -> Iterator[tuple[float, tuple[str, int, float]]]:
    """Run `seed`'s ops in time order, as (time, (kind, target, new value)).

    The ops are `op_stream`'s, drawn from the run's OPS stream; connection c's
    arrivals are drawn from stream (ARRIVALS, c), and the n-th arrival
    carries the n-th op.
    """
    rngs = [run_stream(seed, ARRIVALS, c) for c in range(CONNECTIONS)]
    arrivals = arrival_chunks(rngs, CONNECTIONS / spec.target_throughput)
    ops = op_stream(spec, run_stream(seed, OPS))
    return chain.from_iterable(zip(times, ops) for times in arrivals)
