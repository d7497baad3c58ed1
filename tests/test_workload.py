"""Workload generator: Zipf sampling, world construction, operation mixture."""

from __future__ import annotations

import math
from itertools import islice

import numpy as np
import pytest

from ttl_lab.benchcli import _check_zipf
from ttl_lab.workload import (
    AGENT,
    ARRIVALS,
    CONNECTIONS,
    OPS,
    WORLD,
    QueryDef,
    QueryIndex,
    WorkloadSpec,
    evaluate_query,
    generate_world,
    op_blocks,
    op_stream,
    run_stream,
    zipf_cdf,
)


# ---------------------------------------------------------------------------
# Zipf ranks


def _pmf(n: int, s: float) -> np.ndarray:
    """Index k-1 holds P(rank = k)."""
    return np.diff(zipf_cdf(n, s), prepend=0.0)


def test_zipf_pmf_matches_direct_summation():
    # Independent oracle: p(k) = k^-s / H(n, s) computed with plain Python sums.
    n, s = 40, 0.6
    h = sum(k**-s for k in range(1, n + 1))
    expected = np.array([k**-s / h for k in range(1, n + 1)])
    got = _pmf(n, s)
    assert np.allclose(got, expected, atol=1e-14, rtol=0.0)
    assert got.sum() == pytest.approx(1.0, abs=1e-12)


def test_zipf_s_zero_is_uniform():
    p = _pmf(25, 0.0)
    assert np.allclose(p, 1.0 / 25, atol=1e-14)


def test_zipf_pmf_is_decreasing_for_positive_s():
    p = _pmf(100, 0.9)
    assert np.all(np.diff(p) < 0)


def _all_reads(record_count: int, zipf_s: float) -> WorkloadSpec:
    return WorkloadSpec(record_count=record_count, write_fraction=0.0, query_fraction=0.0,
                        zipf_s=zipf_s)


def test_zipf_sample_range_and_hot_rank():
    stream = op_stream(_all_reads(30, 1.0), np.random.default_rng(5))
    draws = np.array([target for _, target, _ in islice(stream, 5000)])
    assert draws.min() >= 0 and draws.max() <= 29
    counts = np.bincount(draws, minlength=30)
    assert counts.argmax() == 0  # key 0, rank 1, is the mode


def test_zipf_sampler_chi_square():
    ok, detail = _check_zipf()
    assert ok, detail


class _FixedUniforms:
    """An rng stand-in whose random(size) returns set values in order, then zeros."""

    def __init__(self, us):
        self.us = list(us)

    def random(self, size):
        block, self.us = self.us[:size], self.us[size:]
        return np.array(block + [0.0] * (size - len(block)))


def test_zipf_rank_equals_searchsorted_at_table_boundaries():
    cdf = np.cumsum(np.arange(1, 501, dtype=np.float64) ** -0.8)
    cdf /= cdf[-1]
    assert np.array_equal(zipf_cdf(500, 0.8), cdf)
    us = [0.0] + [x for c in cdf[:-1].tolist() for x in (math.nextafter(c, 0.0), c, math.nextafter(c, 1.0))]
    # an all-reads op takes one uniform for its kind, then one for its rank; the
    # 2,996 uniforms span two blocks
    stream = op_stream(_all_reads(500, 0.8), _FixedUniforms(x for u in us for x in (0.5, u)))
    got = list(islice(stream, len(us)))
    assert [op[:2] for op in got] == [("read", int(np.searchsorted(cdf, u, side="right"))) for u in us]
    assert all(math.isnan(v) for *_, v in got)


def test_zipf_validation():
    with pytest.raises(ValueError, match="n must be"):
        zipf_cdf(0, 0.6)
    with pytest.raises(ValueError, match="s must be"):
        zipf_cdf(10, -0.1)


# ---------------------------------------------------------------------------
# queries and the world


def test_evaluate_query_matches_brute_force():
    rng = np.random.default_rng(17)
    values = rng.uniform(0.0, 100.0, size=200)
    for _ in range(50):
        lo, hi = sorted(rng.uniform(0.0, 100.0, size=2))
        brute = [k for k in range(200) if lo <= values[k] < hi]
        got = evaluate_query(values, lo, hi).tolist()
        assert got == brute


def test_evaluate_query_is_half_open():
    values = np.array([1.0, 2.0, 3.0])
    assert evaluate_query(values, 1.0, 3.0).tolist() == [0, 1]  # hi excluded
    assert evaluate_query(values, 3.0, 3.0).tolist() == []  # empty interval


def test_a_read_value_matches_exactly_one_record():
    # A world's values are distinct, so a read of a record, whose result is
    # that record alone, is what a scan of its exact value would return.
    world = generate_world(WorkloadSpec(record_count=3000, query_count=10), np.random.default_rng(31))
    for key, v in enumerate(world.values.tolist()):
        assert evaluate_query(world.values, v, math.nextafter(v, math.inf)).tolist() == [key]


def test_generate_world_shapes_and_determinism():
    spec = WorkloadSpec(record_count=1000, query_count=120)
    w1 = generate_world(spec, np.random.default_rng(42))
    w2 = generate_world(spec, np.random.default_rng(42))
    assert len(w1.values) == 1000
    assert len(w1.queries) == 120
    assert len(np.unique(w1.values)) == 1000
    assert np.array_equal(w1.values, w2.values)
    assert w1.queries == w2.queries


def test_generate_world_cardinalities_within_cap():
    spec = WorkloadSpec(record_count=800, query_count=150, scan_mean=12.0, scan_std=6.0)
    world = generate_world(spec, np.random.default_rng(7))
    cards = [len(evaluate_query(world.values, q.lo, q.hi)) for q in world.queries]
    assert min(cards) >= 1
    assert max(cards) <= spec.result_cap


def test_generate_world_exact_cardinality_with_zero_std():
    # With scan_std = 0 every target size is exactly scan_mean, so the
    # constructed [lo, hi) cuts must match precisely that many records.
    spec = WorkloadSpec(record_count=600, query_count=80, scan_mean=7.0, scan_std=0.0)
    world = generate_world(spec, np.random.default_rng(99))
    for q in world.queries:
        assert len(evaluate_query(world.values, q.lo, q.hi)) == 7


def test_generate_world_query_ids_are_dense():
    world = generate_world(WorkloadSpec(record_count=300, query_count=40), np.random.default_rng(1))
    assert [q.id for q in world.queries] == list(range(40))


# ---------------------------------------------------------------------------
# the query index


def _scan(values, queries):
    return [evaluate_query(values, lo, hi).tolist() for _, lo, hi in queries]


def _index(ranges, values):
    """A QueryIndex over fixed (lo, hi) ranges, its results from a scan."""
    queries = [QueryDef(q, lo, hi) for q, (lo, hi) in enumerate(ranges)]
    return QueryIndex(queries, _scan(values, queries))


@pytest.mark.parametrize("n, count, cap", [(10_000, 1000, 20), (2000, 200, 20), (10, 150, 10)])
def test_world_index_results_equal_evaluate_query(n, count, cap):
    # At n = 10 most queries are cut up to the largest value, whose hi is
    # that value plus 1.
    spec = WorkloadSpec(record_count=n, query_count=count, result_cap=cap)
    world = generate_world(spec, np.random.default_rng(n))
    assert world.index.results == _scan(world.values, world.queries)


def test_world_write_moves_the_key_and_touches_its_read_unit():
    # A write sets the value, moves the key between results and returns the
    # queries holding the old or new value, then the key's read unit, which
    # comes after every query.
    spec = WorkloadSpec(record_count=300, query_count=40)
    world = generate_world(spec, np.random.default_rng(5))
    assert world.first_key_unit == 40
    key = world.index.results[0][0]
    _, lo, hi = world.queries[0]
    old, new = float(world.values[key]), next(float(v) for v in range(300) if not lo <= v < hi)
    touched = world.write(key, new)
    assert touched[-1] == 40 + key
    assert 0 in touched and sorted(touched[:-1]) == [
        q for q, a, b in world.queries if a <= old < b or a <= new < b]
    assert world.values[key] == new
    assert world.index.results == _scan(world.values, world.queries)


def test_query_index_rejects_empty_ranges_and_results_it_cannot_index():
    with pytest.raises(ValueError, match=r"query 0: empty range \[5.0, 5.0\)"):
        QueryIndex([QueryDef(0, 5.0, 5.0)], [[]])
    with pytest.raises(ValueError, match="empty range"):
        QueryIndex([QueryDef(0, 5.0, 4.0)], [[]])
    with pytest.raises(ValueError, match="2 queries but 1 results"):
        QueryIndex([QueryDef(0, 0.0, 1.0), QueryDef(1, 2.0, 3.0)], [[]])
    with pytest.raises(ValueError, match="query 1 has id 2"):
        QueryIndex([QueryDef(0, 0.0, 1.0), QueryDef(2, 2.0, 3.0)], [[], []])


def test_query_index_move_is_half_open():
    values = np.array([1.5, 7.0])
    index = _index([(1.0, 2.0)], values)
    assert index.results == [[0]]
    assert index.move(0, 1.5, 2.0) == [0]  # out: hi is excluded
    assert index.results == [[]]
    assert index.move(0, 2.0, 1.0) == [0]  # in at lo
    assert index.move(1, 7.0, 1.999999) == [0]
    assert index.results == [[0, 1]]
    assert index.move(1, 1.999999, 1.25) == [0]  # inside one query: no change
    assert index.results == [[0, 1]]
    assert index.move(1, 1.25, 1.25) == [0]  # old == new
    assert index.move(0, 1.0, 0.999999) == [0]
    assert index.move(0, 0.999999, 2.5) == []
    assert index.results == [[1]]


def test_query_index_move_keeps_results_ascending_and_touches_each_query_once():
    # queries in different buckets, and one spanning every bucket touched
    values = np.array([0.5, 1000.2, 0.7, 3.0, 1000.9])
    index = _index([(1000.0, 1001.0), (0.0, 1.0), (-5.0, 2000.0)], values)
    assert index.results == [[1, 4], [0, 2], [0, 1, 2, 3, 4]]
    assert sorted(index.move(3, 3.0, 0.6)) == [1, 2]
    assert index.results == [[1, 4], [0, 2, 3], [0, 1, 2, 3, 4]]
    assert sorted(index.move(2, 0.7, 1000.5)) == [0, 1, 2]
    assert index.results == [[1, 2, 4], [0, 3], [0, 1, 2, 3, 4]]
    assert sorted(index.move(1, 1000.2, 0.1)) == [0, 1, 2]
    assert index.results == [[2, 4], [0, 1, 3], [0, 1, 2, 3, 4]]


def test_query_index_matches_evaluate_query_under_churn():
    rng = np.random.default_rng(31)
    values = rng.uniform(0.0, 100.0, size=60)
    los = rng.uniform(0.0, 100.0, size=40)
    ranges = [(lo, lo + w) for lo, w in zip(los.tolist(), rng.uniform(0.01, 15.0, 40).tolist())]
    index = _index(ranges, values)
    for step in range(3000):
        key = int(rng.integers(60))
        old = float(values[key])
        u = rng.random()
        if u < 0.1:
            new = old
        elif u < 0.3:
            new = ranges[int(rng.integers(40))][int(rng.integers(2))]  # a query's lo or hi
        else:
            new = float(rng.uniform(-5.0, 105.0))
        touched = index.move(key, old, new)
        values[key] = new
        assert sorted(touched) == [
            q for q, (lo, hi) in enumerate(ranges) if lo <= old < hi or lo <= new < hi
        ], step
        assert len(set(touched)) == len(touched)
        if step % 50 == 0:
            assert index.results == [evaluate_query(values, lo, hi).tolist() for lo, hi in ranges]
    assert index.results == [evaluate_query(values, lo, hi).tolist() for lo, hi in ranges]


# ---------------------------------------------------------------------------
# operation mixture


def test_op_stream_mixture_fractions():
    spec = WorkloadSpec(record_count=400, query_count=50, write_fraction=0.2, query_fraction=0.5)
    stream = op_stream(spec, np.random.default_rng(13))
    n = 20_000
    kinds = {"update": 0, "query": 0, "read": 0}
    for kind, target, new_value in islice(stream, n):
        kinds[kind] += 1
        if kind == "update":
            assert 0 <= target < 400
            assert 0.0 <= new_value < 400.0
        elif kind == "query":
            assert 0 <= target < 50
            assert math.isnan(new_value)
        else:
            assert 0 <= target < 400
            assert math.isnan(new_value)
    # binomial 4-sigma bands around the configured mixture
    for kind, frac in (("update", 0.2), ("query", 0.5), ("read", 0.3)):
        sigma = (frac * (1 - frac) / n) ** 0.5
        assert abs(kinds[kind] / n - frac) < 4 * sigma, kind


def test_op_stream_zipf_popularity():
    spec = WorkloadSpec(record_count=200, query_count=30, write_fraction=1.0, query_fraction=0.0)
    stream = op_stream(spec, np.random.default_rng(29))
    counts = np.zeros(200)
    for _, target, _ in islice(stream, 8000):
        counts[target] += 1
    assert counts.argmax() == 0  # key 0 is rank 1, the hottest


def test_op_stream_determinism():
    spec = WorkloadSpec(record_count=100, query_count=20)
    a = op_blocks(spec, np.random.default_rng(5))
    b = op_blocks(spec, np.random.default_rng(5))
    for _ in range(3):
        (kinds_a, targets_a, values_a), (kinds_b, targets_b, values_b) = next(a), next(b)
        assert kinds_a == kinds_b and targets_a == targets_b
        assert np.array_equal(values_a, values_b, equal_nan=True)


def _per_call_ops(spec: WorkloadSpec, rng: np.random.Generator, n: int) -> list[tuple]:
    """The op stream drawn with one numpy call per value, as (kind, target,
    new value or None): the reference the block decoder must equal op for op."""

    def cdf(count):
        c = np.cumsum(np.arange(1, count + 1, dtype=np.float64) ** -spec.zipf_s)
        c /= c[-1]
        return c

    keys, queries = cdf(spec.record_count), cdf(spec.query_count)
    ops = []
    for _ in range(n):
        u = rng.random()
        if u < spec.write_fraction:
            key = int(np.searchsorted(keys, rng.random(), side="right"))
            ops.append(("update", key, float(rng.uniform(0.0, float(spec.record_count)))))
        elif u < spec.write_fraction + spec.query_fraction:
            ops.append(("query", int(np.searchsorted(queries, rng.random(), side="right")), None))
        else:
            ops.append(("read", int(np.searchsorted(keys, rng.random(), side="right")), None))
    return ops


@pytest.mark.parametrize("w", [0.0, 0.1, 0.3, 1.0])
def test_op_stream_equals_per_call_reference(w):
    spec = WorkloadSpec(record_count=900, query_count=70, write_fraction=w,
                        query_fraction=min(0.5, 1.0 - w))
    blocks = op_blocks(spec, np.random.default_rng(61))
    kinds, targets, values = [], [], []
    while len(kinds) < 20_000:  # 21 to 30 blocks; ops straddle their ends
        k, t, v = next(blocks)
        kinds += k
        targets += t
        values += v
    got = [(k, t, v if k == "update" else None) for k, t, v in zip(kinds, targets, values)]
    assert got == _per_call_ops(spec, np.random.default_rng(61), len(got))
    assert all(math.isnan(v) for k, v in zip(kinds, values) if k != "update")
    assert set(kinds) == ({"update"} if w == 1.0 else {"query", "read"} | ({"update"} if w else set()))
    assert len({id(k) for k in kinds}) == len(set(kinds))  # one string object per kind


# ---------------------------------------------------------------------------
# spec validation


def test_spec_derived_fields():
    spec = WorkloadSpec(write_fraction=0.25, query_fraction=0.6)
    assert 1.0 - spec.write_fraction - spec.query_fraction == pytest.approx(0.15)
    assert CONNECTIONS == 60


@pytest.mark.parametrize(
    ("kwargs", "match"),
    [
        ({"record_count": 0}, "record_count"),
        ({"query_count": 0}, "query_count"),
        ({"write_fraction": -0.1}, "write_fraction"),
        ({"write_fraction": 1.5}, "write_fraction"),
        ({"query_fraction": 1.5}, "query_fraction"),
        ({"write_fraction": 0.6, "query_fraction": 0.6}, "must not exceed 1"),
        ({"zipf_s": -1.0}, "zipf_s"),
        ({"scan_std": -1.0}, "scan_std"),
        ({"result_cap": 0}, "result_cap"),
        ({"result_cap": 5000}, "result_cap"),
        ({"target_throughput": 0.0}, "target_throughput"),
        ({"scan_mean": -1.0}, "scan_mean"),
        ({"duration": 0.0}, "duration"),
    ],
)
def test_spec_validation_errors(kwargs, match):
    with pytest.raises(ValueError, match=match):
        WorkloadSpec(**kwargs)


# ---------------------------------------------------------------------------
# a run's random streams


def test_run_streams_are_the_children_of_the_spawn_tree():
    # Stream (role,) is the role-th child of SeedSequence(seed).spawn(4) and
    # (ARRIVALS, c) the c-th child of that child's spawn(CONNECTIONS), however
    # many times and in whatever order the streams are built.
    seed = 11
    roles = np.random.SeedSequence(seed).spawn(4)
    conns = roles[ARRIVALS].spawn(CONNECTIONS)
    for c in (CONNECTIONS - 1, 0, 7):
        got = run_stream(seed, ARRIVALS, c).random(4)
        np.testing.assert_array_equal(got, np.random.default_rng(conns[c]).random(4))
    for role in (AGENT, OPS, WORLD, ARRIVALS, AGENT):
        got = run_stream(seed, role).random(4)
        np.testing.assert_array_equal(got, np.random.default_rng(roles[role]).random(4))
