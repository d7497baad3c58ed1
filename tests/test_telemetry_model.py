"""Telemetry against per-key and per-unit deque models, driven by a hypothesis
state machine.

The models keep every event time in a deque per key (writes) or per unit
(requests, with their outcome) and prune on read, so each count, miss rate
and miss-rate delta has a plain expected value. Times are multiples of 0.25
and the window is 2.0, all exact in binary, so events land at equal times and
exactly on the window edge (now - window) of earlier events. Each counter's
clock is the last time it was used; a call before it must raise and change
nothing.
"""

from __future__ import annotations

import math
from collections import deque

import pytest

pytest.importorskip("hypothesis")

from hypothesis import settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule  # noqa: E402

from ttl_lab.telemetry import Telemetry  # noqa: E402

WINDOW = 2.0
steps = st.sampled_from([0.0, 0.25, 0.5, 1.75, WINDOW, 2.25])
keys = st.integers(0, 5)
units = st.integers(0, 3)
back = st.sampled_from([0.25, 1.0, WINDOW, math.inf])


class TelemetryModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tel = Telemetry(WINDOW)
        self.now = 0.0
        # key -> (time,) of its writes; unit -> (time, miss) of its requests
        self.writes: dict[int, deque[tuple[float]]] = {}
        self.requests: dict[int, deque[tuple[float, bool]]] = {}
        self.baseline: dict[int, float] = {}
        self.event_times: list[float] = []
        # the last time each counter was used; the misses counter never runs
        # ahead of the requests counter
        self.write_clock = self.request_clock = -math.inf

    def _live(self, dq):
        while dq and dq[0][0] <= self.now - WINDOW:
            dq.popleft()
        return dq

    def expected_count(self, key):
        return len(self._live(self.writes.get(key, deque())))

    def expected_miss_rate(self, unit):
        dq = self._live(self.requests.get(unit, deque()))
        return sum(miss for _, miss in dq) / len(dq) if dq else None

    @rule(step=steps)
    def advance(self, step):
        self.now += step

    @precondition(lambda self: self.event_times)
    @rule(i=st.integers(0, 10_000))
    def to_window_edge(self, i):
        # the instant an earlier event leaves the window, if it is not past
        self.now = max(self.now, self.event_times[i % len(self.event_times)] + WINDOW)

    @rule(key=keys)
    def record_write(self, key):
        self.tel.record_write(key, self.now)
        self.writes.setdefault(key, deque()).append((self.now,))
        self.event_times.append(self.now)
        self.write_clock = self.now

    @rule(unit=units, miss=st.booleans())
    def record_request(self, unit, miss):
        self.tel.record_request(unit, self.now, miss)
        self.requests.setdefault(unit, deque()).append((self.now, miss))
        self.event_times.append(self.now)
        self.request_clock = self.now

    @rule(ks=st.lists(st.integers(0, 9), max_size=8))
    def write_counts(self, ks):
        # keys 6-9 are never written and count 0
        assert self.tel.write_counts(ks, self.now) == [self.expected_count(k) for k in ks]
        self.write_clock = self.now

    @rule(unit=units)
    def miss_rate(self, unit):
        assert self.tel.miss_rate(unit, self.now) == self.expected_miss_rate(unit)
        self.request_clock = self.now

    @rule(unit=units)
    def miss_rate_delta(self, unit):
        cur = self.expected_miss_rate(unit)
        expected = 0.0
        if cur is not None:
            prev = self.baseline.get(unit)
            self.baseline[unit] = cur
            expected = 0.0 if prev is None else cur - prev
        assert self.tel.miss_rate_delta(unit, self.now) == expected
        self.request_clock = self.now

    @precondition(lambda self: self.write_clock > -math.inf)
    @rule(key=keys, by=back)
    def write_goes_back(self, key, by):
        t = self.write_clock - by
        with pytest.raises(ValueError, match="cannot go back"):
            self.tel.record_write(key, t)
        with pytest.raises(ValueError, match="cannot go back"):
            self.tel.write_counts([key], t)

    @precondition(lambda self: self.request_clock > -math.inf)
    @rule(unit=units, miss=st.booleans(), by=back)
    def request_goes_back(self, unit, miss, by):
        t = self.request_clock - by
        with pytest.raises(ValueError, match="cannot go back"):
            self.tel.record_request(unit, t, miss)
        with pytest.raises(ValueError, match="cannot go back"):
            self.tel.miss_rate_delta(unit, t)
        with pytest.raises(ValueError, match="cannot go back"):
            self.tel.miss_rate(unit, t)

    @rule()
    def read_everything(self):
        expected = [self.expected_count(k) for k in range(10)]
        assert self.tel.write_counts(range(10), self.now) == expected
        for unit in range(4):
            assert self.tel.miss_rate(unit, self.now) == self.expected_miss_rate(unit)
        self.write_clock = self.request_clock = self.now

    @invariant()
    def clocks_trail_now(self):
        assert self.write_clock <= self.now and self.request_clock <= self.now


TestTelemetryModel = TelemetryModel.TestCase
# No deadline: a loaded host would otherwise fail slow examples, and
# filterwarnings = error turns hypothesis's deadline warnings into failures.
TestTelemetryModel.settings = settings(
    deadline=None, max_examples=100, stateful_step_count=50, database=None
)
