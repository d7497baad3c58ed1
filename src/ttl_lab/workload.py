"""YCSB-style workload: a record table, range queries, and the operation mixture.

Records are keyed by dense integers [0, record_count) and carry a single numeric
value drawn uniformly from [0, record_count). Range queries are half-open
intervals [lo, hi) over that value, constructed so that each query initially
matches an exact target cardinality. Updates resample a record's value, which
is what moves records in and out of query results over time.

The op stream takes its uniforms from its generator a block at a time
(`rng.random(n)`) and uses them in draw order, so every op is the one that
per-op `rng.random()` calls would give; only the generator's final state
differs, because the last block is drawn past the run's end.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator, NamedTuple

import numpy as np

# Uniforms the op stream fetches per numpy call; an op uses two or three.
_OP_BLOCK = 1024


def require_finite(section) -> None:
    """Reject a NaN or infinite float field of a config dataclass.

    NaN passes every comparison-based range check and inf passes the lower
    bounds, so each section's __post_init__ starts here.
    """
    for f in fields(section):
        v = getattr(section, f.name)
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{f.name} must be a finite number, got {v}")


def block_draws(draw: Callable[[int], np.ndarray], size: int) -> Iterator[float]:
    """The values of draw(size), draw(size), ... one at a time, as Python floats.

    numpy's generators fill an array with the values that as many single-value
    calls would return, so the stream is the per-call sequence at a fraction of
    the per-value cost. Each block is drawn when the previous one runs out.
    """
    while True:
        yield from draw(size).tolist()


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
    OpStream draws a rank as one uniform plus a binary search (`bisect_right`
    over the table as a Python list, the rank `np.searchsorted(side="right")`
    gives).
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
        self.cdf: list[float] = cdf.tolist()

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


class Op(NamedTuple):
    """One client operation. `target` is a key for read/update, a query id for query."""

    kind: str  # "read" | "update" | "query"
    target: int
    new_value: float | None = None


@dataclass
class OpStream:
    """Draws the operation mixture; key and query popularity are Zipfian.

    Rank r maps to id r-1, so id 0 is the hottest key/query. Each op takes one
    uniform for its kind, one for its Zipf rank and, for an update, one for the
    new value, in that order from a stream of `_OP_BLOCK`-sized blocks.
    """

    spec: WorkloadSpec
    rng: np.random.Generator
    _keys: ZipfSampler = field(init=False)
    _queries: ZipfSampler = field(init=False)

    def __post_init__(self) -> None:
        self._keys = ZipfSampler(self.spec.record_count, self.spec.zipf_s)
        self._queries = ZipfSampler(self.spec.query_count, self.spec.zipf_s)
        self._uniform = block_draws(self.rng.random, _OP_BLOCK).__next__

    def next_op(self) -> Op:
        spec, draw = self.spec, self._uniform
        u = draw()
        if u < spec.write_fraction:
            key = bisect_right(self._keys.cdf, draw())
            # rng.uniform(0.0, n) computes 0.0 + n * rng.random(): the same float
            return Op("update", key, spec.record_count * draw())
        if u < spec.write_fraction + spec.query_fraction:
            return Op("query", bisect_right(self._queries.cdf, draw()))
        return Op("read", bisect_right(self._keys.cdf, draw()))
