"""QueryIndex against evaluate_query, driven by a hypothesis state machine.

The model is the record table itself: after every move each query's result
must equal a scan of the values, and a move must return the queries whose
range holds the key's old or new value, each once. The query ranges and the
values cluster on and next to the index's bucket edges, ranges include point
ranges [v, nextafter(v)), negative values and ranges over several buckets,
and moves land on a query's own bounds, stay in place (old == new) or stay
inside one query.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule  # noqa: E402

from ttl_lab.workload import _WIDTH, QueryDef, QueryIndex, evaluate_query  # noqa: E402

UP, DOWN = math.inf, -math.inf
RECORDS = 8

# k * _WIDTH, or the float just below or above it
edges = st.builds(
    lambda k, step: k * _WIDTH if step is None else math.nextafter(k * _WIDTH, step),
    st.integers(-4, 12),
    st.sampled_from([None, UP, DOWN]),
)
values = st.one_of(
    edges,
    st.floats(-5 * _WIDTH, 13 * _WIDTH, allow_nan=False),
    st.sampled_from([0.0, -0.0]),
)
widths = st.one_of(
    st.just(None),  # a point range
    st.floats(1e-9, _WIDTH),
    st.floats(_WIDTH, 5 * _WIDTH),
    st.floats(5 * _WIDTH, 40 * _WIDTH),
)
keys = st.integers(0, RECORDS - 1)
picks = st.integers(0, 63)  # a query, modulo the table's length


class QueryIndexModel(RuleBasedStateMachine):
    @initialize(
        ranges=st.lists(st.tuples(values, widths), min_size=1, max_size=12),
        start=st.lists(values, min_size=RECORDS, max_size=RECORDS),
    )
    def build(self, ranges, start):
        self.values = np.array(start)
        self.queries = [
            QueryDef(q, lo, math.nextafter(lo, UP) if w is None else max(lo + w, math.nextafter(lo, UP)))
            for q, (lo, w) in enumerate(ranges)
        ]
        self.index = QueryIndex(self.queries, self.scan())

    def scan(self) -> list[list[int]]:
        return [evaluate_query(self.values, lo, hi).tolist() for _, lo, hi in self.queries]

    def query(self, pick: int) -> QueryDef:
        return self.queries[pick % len(self.queries)]

    def move(self, key: int, new: float) -> None:
        old = float(self.values[key])
        touched = self.index.move(key, old, new)
        self.values[key] = new
        assert sorted(touched) == [
            q for q, lo, hi in self.queries if lo <= old < hi or lo <= new < hi
        ]
        assert len(set(touched)) == len(touched)

    @rule(key=keys, new=values)
    def move_anywhere(self, key, new):
        self.move(key, new)

    @rule(key=keys)
    def move_in_place(self, key):
        self.move(key, float(self.values[key]))

    @rule(key=keys, pick=picks, bound=st.sampled_from(["lo", "last", "hi", "below"]))
    def move_to_a_bound(self, key, pick, bound):
        _, lo, hi = self.query(pick)
        self.move(key, {
            "lo": lo,
            "last": math.nextafter(hi, DOWN),  # the largest value inside
            "hi": hi,
            "below": math.nextafter(lo, DOWN),
        }[bound])

    @rule(key=keys, pick=picks, frac=st.floats(0.0, 1.0))
    def move_inside_a_query(self, key, pick, frac):
        _, lo, hi = self.query(pick)
        self.move(key, lo)
        self.move(key, min(lo + frac * (hi - lo), math.nextafter(hi, DOWN)))

    @invariant()
    def results_equal_a_scan(self):
        assert self.index.results == self.scan()


TestQueryIndexModel = QueryIndexModel.TestCase
# No deadline: a loaded host would otherwise fail slow examples, and
# filterwarnings = error turns hypothesis's deadline warnings into failures.
TestQueryIndexModel.settings = settings(
    deadline=None, max_examples=100, stateful_step_count=40, database=None
)
