"""Stateful property test: the EdgeCache under arbitrary operation mixes.

A hypothesis rule-based state machine drives admit/access/invalidate/
expire sequences against a model (a plain dict) and checks after every
step that the cache's accounting, capacity bound, and directory
callback stream stay consistent.
"""

import hypothesis.strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.simulator.cache import EdgeCache
from repro.simulator.replacement import make_policy

CAPACITY = 120
DOC_IDS = st.integers(0, 12)
SIZES = st.integers(1, 60)


class CacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.evictions = []
        self.cache = EdgeCache(
            node=1,
            capacity_bytes=CAPACITY,
            policy=make_policy("utility"),
            on_evict=lambda node, doc: self.evictions.append(doc),
        )
        self.model = {}  # doc -> size
        self.clock = 0.0

    def _tick(self) -> float:
        self.clock += 1.0
        return self.clock

    @rule(doc=DOC_IDS, size=SIZES)
    def admit(self, doc, size):
        now = self._tick()
        before = set(self.cache.stored_ids())
        admitted = self.cache.admit(doc, size, 1.0, now, version=0)
        if doc in before:
            # Refresh in place: size unchanged, still held.
            assert admitted
            assert self.cache.holds(doc)
        elif size > CAPACITY:
            assert not admitted
            assert not self.cache.holds(doc)
        else:
            assert admitted
            assert self.cache.holds(doc)
            self.model[doc] = size
        # Sync the model with whatever eviction happened.
        held = set(self.cache.stored_ids())
        self.model = {
            d: s for d, s in self.model.items() if d in held
        }

    @rule(doc=DOC_IDS)
    def access(self, doc):
        now = self._tick()
        if self.cache.holds(doc):
            entry = self.cache.access(doc, now)
            assert entry.doc_id == doc

    @rule(doc=DOC_IDS)
    def invalidate(self, doc):
        held_before = self.cache.holds(doc)
        dropped = self.cache.invalidate(doc)
        assert dropped == held_before
        assert not self.cache.holds(doc)
        self.model.pop(doc, None)

    @rule(doc=DOC_IDS)
    def expire(self, doc):
        held_before = self.cache.holds(doc)
        dropped = self.cache.expire(doc)
        assert dropped == held_before
        self.model.pop(doc, None)

    @invariant()
    def capacity_respected(self):
        assert 0 <= self.cache.used_bytes <= CAPACITY

    @invariant()
    def accounting_matches_contents(self):
        total = sum(
            self.cache.entry(d).size_bytes for d in self.cache.stored_ids()
        )
        assert total == self.cache.used_bytes

    @invariant()
    def model_agrees(self):
        assert set(self.cache.stored_ids()) == set(self.model)

    @invariant()
    def evictions_are_not_held(self):
        # Whatever the callback reported evicted most recently must not
        # be held unless it was re-admitted later; at minimum, the
        # callback stream only names docs that existed.
        for doc in self.evictions:
            assert 0 <= doc <= 12


TestCacheMachine = CacheMachine.TestCase
