"""DeiQueue against a dict model, driven by a hypothesis state machine.

Each decision caches an entry for its serve, as a miss does in the
simulation, and enqueues its transition; the model is a dict of serve id ->
[decided_at, due_at, inval_at]. A write marks the serve's live entry and
stamps its transition, and the delayed purge later drops the entry, so a
stamp outlives its cache entry until the transition comes due. A stamp on an
unknown or already-popped serve, or a second stamp, returns False and changes
nothing; popping an unknown serve raises.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule  # noqa: E402

from ttl_lab.cachesys import CacheSystem  # noqa: E402
from ttl_lab.dei import DeiQueue, IncompleteTransition  # noqa: E402

ttls = st.sampled_from([0.25, 1.0, 2.5, 6.0])
steps = st.sampled_from([0.0, 0.25, 1.0, 3.0])
picks = st.integers(0, 10_000)


class DeiQueueModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.queue = DeiQueue()
        self.cache = CacheSystem(capacity=64)
        self.now = 0.0
        self.next_id = 0
        self.model: dict[int, list] = {}  # serve id -> [decided_at, due_at, inval_at]
        self.popped: set[int] = set()

    def pick(self, ids, i):
        ids = sorted(ids)
        return ids[i % len(ids)]

    @rule(step=steps)
    def advance(self, step):
        self.now += step

    @rule(ttl=ttls)
    def decide(self, ttl):
        sid = self.next_id
        self.next_id += 1
        self.cache.insert(sid, sid, ttl, self.now)  # one unit per serve
        it = IncompleteTransition(sid, sid, np.zeros(2), ttl, decided_at=self.now)
        self.queue.enqueue(it)
        self.model[sid] = [self.now, self.now + ttl, None]

    @precondition(lambda self: self.model)
    @rule(i=picks)
    def enqueue_again(self, i):
        sid = self.pick(self.model, i)
        with pytest.raises(ValueError, match="already pending"):
            self.queue.enqueue(IncompleteTransition(sid, sid, np.zeros(2), 1.0, self.now))

    @rule(ttl=ttls)
    def due_before_decided(self, ttl):
        with pytest.raises(ValueError, match="due before"):
            self.queue.enqueue(IncompleteTransition(self.next_id, 0, np.zeros(2), -ttl,
                                                    decided_at=self.now))

    def live_ids(self):
        self.cache.sweep(self.now)  # as every cache call does first
        return [e.serve_id for e in self.cache.live_entries()]

    @precondition(lambda self: self.live_ids())
    @rule(i=picks)
    def write(self, i):
        # as Simulation._handle_update: the live entry is marked, its
        # transition stamped at issue time
        sid = self.pick(self.live_ids(), i)
        for marked in self.cache.origin_update([sid], self.now):
            self.stamp(marked)

    @precondition(lambda self: self.live_ids())
    @rule(i=picks)
    def purge(self, i):
        # the delayed invalidation: the entry leaves the cache, the queue is untouched
        assert self.cache.apply_invalidation(self.pick(self.live_ids(), i), self.now)

    def stamp(self, sid):
        expected = sid in self.model and self.model[sid][2] is None
        assert self.queue.stamp_invalidation(sid, self.now) is expected
        if expected:
            self.model[sid][2] = self.now

    @precondition(lambda self: self.model)
    @rule(i=picks)
    def stamp_pending(self, i):
        # a second stamp is ignored
        self.stamp(self.pick(self.model, i))

    @precondition(lambda self: self.popped)
    @rule(i=picks)
    def stamp_popped(self, i):
        self.stamp(self.pick(self.popped, i))

    @rule(j=st.integers(0, 3))
    def stamp_unknown(self, j):
        self.stamp(self.next_id + j)

    def _pop(self, sid):
        decided_at, due_at, inval_at = self.model.pop(sid)
        self.now = max(self.now, due_at)
        it = self.queue.pop_due(sid)
        assert (it.serve_id, it.decided_at, it.due_at, it.inval_at) == (
            sid, decided_at, due_at, inval_at)
        self.popped.add(sid)
        return it

    @precondition(lambda self: self.model)
    @rule(i=picks)
    def pop_due(self, i):
        self._pop(self.pick(self.model, i))

    def _outlived(self):
        """Stamped transitions whose cache entry is gone."""
        return [s for s, (_, _, inval_at) in self.model.items()
                if inval_at is not None and s not in self.live_ids()]

    @precondition(lambda self: self._outlived())
    @rule(i=picks)
    def pop_stamp_that_outlived_its_entry(self, i):
        sid = self.pick(self._outlived(), i)
        stamped_at = self.model[sid][2]
        assert self._pop(sid).inval_at == stamped_at

    @precondition(lambda self: self.popped)
    @rule(i=picks)
    def pop_popped(self, i):
        with pytest.raises(KeyError):
            self.queue.pop_due(self.pick(self.popped, i))

    @rule(j=st.integers(0, 3))
    def pop_unknown(self, j):
        with pytest.raises(KeyError):
            self.queue.pop_due(self.next_id + j)

    @invariant()
    def same_pending(self):
        assert len(self.queue) == len(self.model)
        assert self.queue._pending.keys() == self.model.keys()


TestDeiQueueModel = DeiQueueModel.TestCase
# No deadline: a loaded host would otherwise fail slow examples, and
# filterwarnings = error turns hypothesis's deadline warnings into failures.
TestDeiQueueModel.settings = settings(
    deadline=None, max_examples=100, stateful_step_count=40, database=None
)
