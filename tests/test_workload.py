"""Workload generator: Zipf sampling, world construction, operation mixture."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ttl_lab.benchcli import _check_zipf
from ttl_lab.workload import (
    Op,
    OpStream,
    WorkloadSpec,
    ZipfSampler,
    evaluate_query,
    generate_world,
    read_range,
)


# ---------------------------------------------------------------------------
# ZipfSampler


def test_zipf_pmf_matches_direct_summation():
    # Independent oracle: p(k) = k^-s / H(n, s) computed with plain Python sums.
    n, s = 40, 0.6
    h = sum(k**-s for k in range(1, n + 1))
    expected = np.array([k**-s / h for k in range(1, n + 1)])
    got = ZipfSampler(n, s).pmf()
    assert np.allclose(got, expected, atol=1e-14, rtol=0.0)
    assert got.sum() == pytest.approx(1.0, abs=1e-12)


def test_zipf_s_zero_is_uniform():
    p = ZipfSampler(25, 0.0).pmf()
    assert np.allclose(p, 1.0 / 25, atol=1e-14)


def test_zipf_pmf_is_decreasing_for_positive_s():
    p = ZipfSampler(100, 0.9).pmf()
    assert np.all(np.diff(p) < 0)


def _all_reads(record_count: int, zipf_s: float) -> WorkloadSpec:
    return WorkloadSpec(record_count=record_count, write_fraction=0.0, query_fraction=0.0,
                        zipf_s=zipf_s)


def test_zipf_sample_range_and_hot_rank():
    stream = OpStream(_all_reads(30, 1.0), np.random.default_rng(5))
    draws = np.array([stream.next_op().target for _ in range(5000)])
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
    zs = ZipfSampler(500, 0.8)
    cdf = np.cumsum(np.arange(1, 501, dtype=np.float64) ** -0.8)
    cdf /= cdf[-1]
    assert zs.cdf == cdf.tolist()
    us = [0.0] + [x for c in zs.cdf[:-1] for x in (math.nextafter(c, 0.0), c, math.nextafter(c, 1.0))]
    # an all-reads op takes one uniform for its kind, then one for its rank
    stream = OpStream(_all_reads(500, 0.8), _FixedUniforms(x for u in us for x in (0.5, u)))
    for u in us:
        assert stream.next_op() == Op("read", int(np.searchsorted(cdf, u, side="right")))


def test_zipf_validation():
    with pytest.raises(ValueError, match="n must be"):
        ZipfSampler(0, 0.6)
    with pytest.raises(ValueError, match="s must be"):
        ZipfSampler(10, -0.1)


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


def test_read_range_matches_exactly_one_record():
    rng = np.random.default_rng(23)
    spec = WorkloadSpec(record_count=500, query_count=10)
    world = generate_world(spec, rng)
    for key in rng.integers(0, 500, size=40):
        lo, hi = read_range(world.values, int(key))
        assert evaluate_query(world.values, lo, hi).tolist() == [int(key)]


def test_read_range_equals_numpy_nextafter():
    world = generate_world(WorkloadSpec(record_count=3000, query_count=10), np.random.default_rng(31))
    for key, v in enumerate(world.values.tolist()):
        assert read_range(world.values, key) == (v, float(np.nextafter(v, np.inf)))


def test_generate_world_shapes_and_determinism():
    spec = WorkloadSpec(record_count=1000, query_count=120)
    w1 = generate_world(spec, np.random.default_rng(42))
    w2 = generate_world(spec, np.random.default_rng(42))
    assert w1.record_count == 1000
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
# operation mixture


def test_op_stream_mixture_fractions():
    spec = WorkloadSpec(record_count=400, query_count=50, write_fraction=0.2, query_fraction=0.5)
    stream = OpStream(spec, np.random.default_rng(13))
    n = 20_000
    kinds = {"update": 0, "query": 0, "read": 0}
    for _ in range(n):
        op = stream.next_op()
        kinds[op.kind] += 1
        if op.kind == "update":
            assert 0 <= op.target < 400
            assert 0.0 <= op.new_value < 400.0
        elif op.kind == "query":
            assert 0 <= op.target < 50
            assert op.new_value is None
        else:
            assert 0 <= op.target < 400
            assert op.new_value is None
    # binomial 4-sigma bands around the configured mixture
    for kind, frac in (("update", 0.2), ("query", 0.5), ("read", 0.3)):
        sigma = (frac * (1 - frac) / n) ** 0.5
        assert abs(kinds[kind] / n - frac) < 4 * sigma, kind


def test_op_stream_zipf_popularity():
    spec = WorkloadSpec(record_count=200, query_count=30, write_fraction=1.0, query_fraction=0.0)
    stream = OpStream(spec, np.random.default_rng(29))
    counts = np.zeros(200)
    for _ in range(8000):
        counts[stream.next_op().target] += 1
    assert counts.argmax() == 0  # key 0 is rank 1, the hottest


def test_op_stream_determinism():
    spec = WorkloadSpec(record_count=100, query_count=20)
    a = OpStream(spec, np.random.default_rng(5))
    b = OpStream(spec, np.random.default_rng(5))
    for _ in range(200):
        assert a.next_op() == b.next_op()


def _per_call_ops(spec: WorkloadSpec, rng: np.random.Generator, n: int) -> list[Op]:
    """The op stream drawn with one numpy call per value: the reference the
    block-drawn stream must equal op for op."""

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
            ops.append(Op("update", key, float(rng.uniform(0.0, float(spec.record_count)))))
        elif u < spec.write_fraction + spec.query_fraction:
            ops.append(Op("query", int(np.searchsorted(queries, rng.random(), side="right"))))
        else:
            ops.append(Op("read", int(np.searchsorted(keys, rng.random(), side="right"))))
    return ops


@pytest.mark.parametrize("w", [0.0, 0.1, 0.3, 1.0])
def test_op_stream_equals_per_call_reference(w):
    spec = WorkloadSpec(record_count=900, query_count=70, write_fraction=w,
                        query_fraction=min(0.5, 1.0 - w))
    stream = OpStream(spec, np.random.default_rng(61))
    n = 20_000
    got = [stream.next_op() for _ in range(n)]
    assert got == _per_call_ops(spec, np.random.default_rng(61), n)
    kinds = {op.kind for op in got}
    assert kinds == ({"update"} if w == 1.0 else {"query", "read"} | ({"update"} if w else set()))


def test_op_namedtuple_defaults():
    op = Op("read", 7)
    assert op.new_value is None


# ---------------------------------------------------------------------------
# spec validation


def test_spec_derived_fields():
    spec = WorkloadSpec(write_fraction=0.25, query_fraction=0.6)
    assert spec.read_fraction == pytest.approx(0.15)
    assert spec.connections == 60


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
        ({"client_count": 0}, "connection"),
        ({"duration": 0.0}, "duration"),
    ],
)
def test_spec_validation_errors(kwargs, match):
    with pytest.raises(ValueError, match=match):
        WorkloadSpec(**kwargs)
