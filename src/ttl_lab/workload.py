"""YCSB-style workload: a record table, range queries, and the operation mixture.

Records are keyed by dense integers [0, record_count) and carry a single numeric
value drawn uniformly from [0, record_count). Range queries are half-open
intervals [lo, hi) over that value, constructed so that each query initially
matches an exact target cardinality. Updates resample a record's value, which
is what moves records in and out of query results over time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class WorkloadSpec:
    """Knobs for one workload cell. Defaults are the desk-scale preset."""

    record_count: int = 2000
    query_count: int = 200
    write_fraction: float = 0.1
    query_fraction: float = 0.9
    zipf_s: float = 0.6
    scan_mean: float = 10.0
    scan_std: float = 5.0
    result_cap: int = 20
    target_throughput: float = 200.0
    client_count: int = 10
    connections_per_client: int = 6
    duration: float = 300.0

    @property
    def connections(self) -> int:
        return self.client_count * self.connections_per_client

    @property
    def read_fraction(self) -> float:
        return 1.0 - self.write_fraction - self.query_fraction

    def validate(self) -> None:
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
        if self.scan_std < 0.0:
            raise ValueError("scan_std must be >= 0")
        if not (1 <= self.result_cap <= self.record_count):
            raise ValueError("result_cap must be in [1, record_count]")
        if self.target_throughput <= 0.0:
            raise ValueError("target_throughput must be positive")
        if self.connections < 1:
            raise ValueError("need at least one client connection")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")


class ZipfSampler:
    """Zipf(s) ranks over {1..n} via a precomputed cumulative table.

    P(rank = k) is proportional to k**-s; s = 0 degenerates to uniform.
    Sampling is one uniform draw plus a binary search.
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
        self._cdf = cdf

    def pmf(self) -> np.ndarray:
        """Exact probabilities, index k-1 holds P(rank = k)."""
        p = np.empty(self.n)
        p[0] = self._cdf[0]
        p[1:] = np.diff(self._cdf)
        return p

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one rank in [1, n]."""
        u = rng.random()
        return int(np.searchsorted(self._cdf, u, side="right")) + 1


class QueryDef(NamedTuple):
    id: int
    lo: float
    hi: float


@dataclass
class World:
    """Mutable record store plus the fixed query set for one run."""

    values: np.ndarray
    queries: list[QueryDef]

    @property
    def record_count(self) -> int:
        return len(self.values)


def evaluate_query(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Keys whose current value lies in [lo, hi), ascending."""
    return np.nonzero((values >= lo) & (values < hi))[0]


def read_range(values: np.ndarray, key: int) -> tuple[float, float]:
    """The singleton range a point read of `key` maps to."""
    v = float(values[key])
    return v, float(np.nextafter(v, np.inf))


def generate_world(spec: WorkloadSpec, rng: np.random.Generator) -> World:
    """Build the record table and a query set with exact initial cardinalities.

    Each query's target size is round(N(scan_mean, scan_std)) clamped to
    [1, result_cap]; the [lo, hi) bounds are cut from the sorted value array so
    the query matches exactly that many records at t=0.
    """
    spec.validate()
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

    Rank r maps to id r-1, so id 0 is the hottest key/query.
    """

    spec: WorkloadSpec
    rng: np.random.Generator
    _keys: ZipfSampler = field(init=False)
    _queries: ZipfSampler = field(init=False)

    def __post_init__(self) -> None:
        self.spec.validate()
        self._keys = ZipfSampler(self.spec.record_count, self.spec.zipf_s)
        self._queries = ZipfSampler(self.spec.query_count, self.spec.zipf_s)

    def next_op(self) -> Op:
        u = self.rng.random()
        if u < self.spec.write_fraction:
            key = self._keys.sample(self.rng) - 1
            new_value = float(self.rng.uniform(0.0, float(self.spec.record_count)))
            return Op("update", key, new_value)
        if u < self.spec.write_fraction + self.spec.query_fraction:
            return Op("query", self._queries.sample(self.rng) - 1)
        return Op("read", self._keys.sample(self.rng) - 1)
