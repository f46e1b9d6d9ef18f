"""Stateful property test: the group copy-directory stays exact.

Random record/drop/fail/recover sequences against a model of who holds
what; after every step the protocol's holder sets must match the model
exactly (filtered by availability), and lookups must agree with it.
"""

import hypothesis.strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.groups import CacheGroup, GroupingResult
from repro.simulator.group_proto import GroupProtocol, LookupOutcome
from repro.topology.network import network_from_matrix

MATRIX = [
    [0.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0],
    [10.0, 0.0, 4.0, 6.0, 22.0, 24.0, 26.0],
    [12.0, 4.0, 0.0, 5.0, 23.0, 25.0, 27.0],
    [14.0, 6.0, 5.0, 0.0, 21.0, 23.0, 25.0],
    [16.0, 22.0, 23.0, 21.0, 0.0, 3.0, 5.0],
    [18.0, 24.0, 25.0, 23.0, 3.0, 0.0, 4.0],
    [20.0, 26.0, 27.0, 25.0, 5.0, 4.0, 0.0],
]

CACHES = st.integers(1, 6)
DOCS = st.integers(0, 8)


class DirectoryMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        network = network_from_matrix(MATRIX)
        grouping = GroupingResult(
            scheme="manual",
            groups=(
                CacheGroup(0, (1, 2, 3)),
                CacheGroup(1, (4, 5, 6)),
            ),
        )
        self.down = set()
        self.protocol = GroupProtocol(
            network, grouping, 500.0, unavailable=self.down
        )
        self.group_of = {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}
        self.model = {}  # (doc, group) -> set of holders

    @rule(cache=CACHES, doc=DOCS)
    def record(self, cache, doc):
        key = (doc, self.group_of[cache])
        holders = self.model.setdefault(key, set())
        if cache not in holders:
            self.protocol.record_copy(cache, doc)
            holders.add(cache)

    @rule(cache=CACHES, doc=DOCS)
    def drop(self, cache, doc):
        self.protocol.drop_copy(cache, doc)
        key = (doc, self.group_of[cache])
        self.model.get(key, set()).discard(cache)

    @rule(cache=CACHES)
    def toggle_availability(self, cache):
        if cache in self.down:
            self.down.discard(cache)
        else:
            self.down.add(cache)

    @invariant()
    def holders_match_model(self):
        for cache in range(1, 7):
            group = self.group_of[cache]
            for doc in range(9):
                expected = {
                    h
                    for h in self.model.get((doc, group), set())
                    if h != cache and h not in self.down
                }
                actual = set(self.protocol.holders_in_group(cache, doc))
                assert actual == expected

    @invariant()
    def lookup_agrees_with_holders(self):
        for cache in (1, 4):
            if cache in self.down:
                continue
            for doc in range(3):
                result = self.protocol.lookup(cache, doc)
                holders = self.protocol.holders_in_group(cache, doc)
                beacon = self.protocol.beacon_of(cache, doc)
                beacon_down = beacon != cache and beacon in self.down
                if beacon_down:
                    assert result.outcome is LookupOutcome.GROUP_MISS
                elif holders:
                    assert result.outcome is LookupOutcome.GROUP_HIT
                    assert result.holder in holders
                else:
                    assert result.outcome is LookupOutcome.GROUP_MISS

    @invariant()
    def all_holders_union(self):
        for doc in range(9):
            expected = set()
            for (d, _g), holders in self.model.items():
                if d == doc:
                    expected |= holders
            assert set(self.protocol.all_holders(doc)) == expected


TestDirectoryMachine = DirectoryMachine.TestCase
