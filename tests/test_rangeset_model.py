"""RangeSet against a dict model, driven by a hypothesis state machine.

The model is a dict of id -> (lo, hi) in add order, so every probe's expected
answer is a plain filter over it, in insertion order. Values cluster on and
next to the index's bucket edges, ranges include point ranges
[v, nextafter(v)), negative values and ranges over several buckets.
"""

from __future__ import annotations

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule  # noqa: E402

from ttl_lab.cachesys import _WIDTH, RangeSet  # noqa: E402

UP, DOWN = math.inf, -math.inf

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
ids = st.integers(0, 24)


class RangeSetModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.rs = RangeSet()
        self.model: dict[int, tuple[float, float]] = {}

    def expect(self, *vs: float) -> list[int]:
        return [r for r, (lo, hi) in self.model.items() if any(lo <= v < hi for v in vs)]

    @rule(rid=ids, lo=values, width=widths)
    def add(self, rid, lo, width):
        hi = math.nextafter(lo, UP) if width is None else max(lo + width, math.nextafter(lo, UP))
        if rid in self.model:
            with pytest.raises(ValueError, match="already present"):
                self.rs.add(rid, lo, hi)
            return
        self.rs.add(rid, lo, hi)
        self.model[rid] = (lo, hi)

    @rule(rid=ids, lo=values, hi=values)
    def add_between_values(self, rid, lo, hi):
        # both bounds on or next to bucket edges; an empty range is refused
        if hi <= lo or rid in self.model:
            with pytest.raises(ValueError):
                self.rs.add(rid, lo, hi)
            return
        self.rs.add(rid, lo, hi)
        self.model[rid] = (lo, hi)

    @rule(rid=ids)
    def discard(self, rid):
        assert self.rs.discard(rid) is (self.model.pop(rid, None) is not None)

    @rule(v=values)
    def stab(self, v):
        assert self.rs.stab(v) == self.expect(v)

    @rule(v1=values, v2=values)
    def stab_either(self, v1, v2):
        assert self.rs.stab_either(v1, v2) == self.expect(v1, v2)

    @rule()
    def stab_at_bounds(self):
        for lo, hi in list(self.model.values()):
            last = math.nextafter(hi, DOWN)
            for v in (lo, last, hi, math.nextafter(lo, DOWN)):
                assert self.rs.stab(v) == self.expect(v)
            assert self.rs.stab_either(lo, hi) == self.expect(lo, hi)
            assert self.rs.stab_either(last, lo) == self.expect(last, lo)

    @invariant()
    def same_members(self):
        assert len(self.rs) == len(self.model)
        assert all(r in self.rs for r in self.model)


TestRangeSetModel = RangeSetModel.TestCase
# No deadline: a loaded host would otherwise fail slow examples, and
# filterwarnings = error turns hypothesis's deadline warnings into failures.
TestRangeSetModel.settings = settings(
    deadline=None, max_examples=100, stateful_step_count=40, database=None
)
