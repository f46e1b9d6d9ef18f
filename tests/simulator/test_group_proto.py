"""Tests for the cooperative group protocol."""

import pytest

from repro.core.groups import CacheGroup, GroupingResult
from repro.errors import SimulationError
from repro.simulator import GroupProtocol, LookupOutcome


@pytest.fixture
def grouping(paper_network):
    """Paper network split into the natural pairs plus ids."""
    return GroupingResult(
        scheme="manual",
        groups=(
            CacheGroup(0, (1, 2)),
            CacheGroup(1, (3, 4)),
            CacheGroup(2, (5, 6)),
        ),
    )


@pytest.fixture
def singleton_grouping(paper_network):
    return GroupingResult(
        scheme="manual",
        groups=tuple(
            CacheGroup(i, (node,)) for i, node in enumerate(range(1, 7))
        ),
    )


def proto(network, grouping, mode="beacon", lookup_ms=0.3):
    return GroupProtocol(
        network, grouping, 500.0, group_lookup_ms=lookup_ms, mode=mode
    )


class TestDirectoryMaintenance:
    def test_record_and_lookup(self, paper_network, grouping):
        p = proto(paper_network, grouping)
        p.record_copy(2, 7)  # Ec1 stores doc 7
        assert p.holders_in_group(1, 7) == [2]
        assert p.holders_in_group(3, 7) == []  # other group

    def test_drop_copy(self, paper_network, grouping):
        p = proto(paper_network, grouping)
        p.record_copy(2, 7)
        p.drop_copy(2, 7)
        assert p.holders_in_group(1, 7) == []

    def test_drop_idempotent(self, paper_network, grouping):
        p = proto(paper_network, grouping)
        p.drop_copy(2, 7)  # never recorded

    def test_all_holders_across_groups(self, paper_network, grouping):
        p = proto(paper_network, grouping)
        p.record_copy(1, 7)
        p.record_copy(3, 7)
        assert sorted(p.all_holders(7)) == [1, 3]

    def test_own_copy_not_a_peer_holder(self, paper_network, grouping):
        p = proto(paper_network, grouping)
        p.record_copy(1, 7)
        assert p.holders_in_group(1, 7) == []

    def test_ungrouped_cache_rejected(self, paper_network, grouping):
        p = proto(paper_network, grouping)
        with pytest.raises(SimulationError):
            p.record_copy(99, 7)
        with pytest.raises(SimulationError):
            p.peers_of(99)


class TestPeers:
    def test_peers_and_max_rtt(self, paper_network, grouping):
        p = proto(paper_network, grouping)
        assert p.peers_of(1) == [2]
        assert p.max_peer_rtt(1) == paper_network.rtt(1, 2)

    def test_singletons_no_peers(self, paper_network, singleton_grouping):
        p = proto(paper_network, singleton_grouping)
        assert p.peers_of(1) == []
        assert p.max_peer_rtt(1) == 0.0


class TestLookupBeacon:
    def test_no_peers(self, paper_network, singleton_grouping):
        p = proto(paper_network, singleton_grouping)
        result = p.lookup(1, 7)
        assert result.outcome is LookupOutcome.NO_PEERS
        assert result.query_ms == 0.0
        assert result.messages == 0

    def test_group_hit_returns_nearest_holder(self, paper_network):
        grouping = GroupingResult(
            scheme="manual", groups=(CacheGroup(0, (1, 2, 3, 4, 5, 6)),)
        )
        p = proto(paper_network, grouping)
        p.record_copy(4, 7)
        p.record_copy(3, 7)
        result = p.lookup(1, 7)
        assert result.outcome is LookupOutcome.GROUP_HIT
        # Ec0 (node 1): rtt to node 4 = 14.4, to node 3 = 17.0.
        assert result.holder == 4

    def test_beacon_cost_depends_on_member(self, paper_network, grouping):
        p = proto(paper_network, grouping, lookup_ms=0.0)
        # In group (1, 2), the beacon for a doc is either node 1 or 2.
        result = p.lookup(1, 7)
        beacon = p.beacon_of(1, 7)
        expected = 0.0 if beacon == 1 else paper_network.rtt(1, beacon)
        assert result.query_ms == pytest.approx(expected)
        assert result.messages == (0 if beacon == 1 else 2)

    def test_beacon_deterministic_and_agreed(self, paper_network, grouping):
        p = proto(paper_network, grouping)
        assert p.beacon_of(1, 7) == p.beacon_of(2, 7)
        assert p.beacon_of(1, 7) in (1, 2)

    def test_beacon_spreads_over_members(self, paper_network):
        grouping = GroupingResult(
            scheme="manual", groups=(CacheGroup(0, (1, 2, 3, 4, 5, 6)),)
        )
        p = proto(paper_network, grouping)
        beacons = {p.beacon_of(1, doc) for doc in range(100)}
        assert len(beacons) >= 4  # well spread over 6 members

    def test_group_miss(self, paper_network, grouping):
        p = proto(paper_network, grouping)
        result = p.lookup(1, 7)
        assert result.outcome is LookupOutcome.GROUP_MISS
        assert result.holder is None


class TestLookupMulticast:
    def test_miss_waits_for_farthest_peer(self, paper_network):
        grouping = GroupingResult(
            scheme="manual", groups=(CacheGroup(0, (1, 2, 3)),)
        )
        p = proto(paper_network, grouping, mode="multicast", lookup_ms=0.0)
        result = p.lookup(1, 7)
        assert result.outcome is LookupOutcome.GROUP_MISS
        assert result.query_ms == pytest.approx(
            max(paper_network.rtt(1, 2), paper_network.rtt(1, 3))
        )
        assert result.messages == 4  # 2 peers x (query + response)

    def test_hit_proceeds_on_nearest_positive(self, paper_network):
        grouping = GroupingResult(
            scheme="manual", groups=(CacheGroup(0, (1, 2, 3)),)
        )
        p = proto(paper_network, grouping, mode="multicast", lookup_ms=0.0)
        p.record_copy(2, 7)
        result = p.lookup(1, 7)
        assert result.outcome is LookupOutcome.GROUP_HIT
        assert result.holder == 2
        assert result.query_ms == pytest.approx(paper_network.rtt(1, 2))


class TestAvailabilityFiltering:
    def test_down_holder_invisible(self, paper_network):
        down = set()
        grouping = GroupingResult(
            scheme="manual", groups=(CacheGroup(0, (1, 2, 3)),)
        )
        p = GroupProtocol(paper_network, grouping, 500.0, unavailable=down)
        p.record_copy(2, 7)
        assert p.holders_in_group(1, 7) == [2]
        down.add(2)
        assert p.holders_in_group(1, 7) == []
        down.discard(2)
        assert p.holders_in_group(1, 7) == [2]

    def test_beacon_down_forces_miss_even_with_live_holders(
        self, paper_network
    ):
        down = set()
        grouping = GroupingResult(
            scheme="manual", groups=(CacheGroup(0, (1, 2, 3)),)
        )
        p = GroupProtocol(
            paper_network, grouping, 500.0, mode="beacon", unavailable=down
        )
        p.record_copy(3, 7)
        # Find a doc whose beacon (from cache 1's view) is cache 2.
        doc = next(
            d for d in range(50)
            if p.beacon_of(1, d) == 2
        )
        p.record_copy(3, doc)
        down.add(2)
        result = p.lookup(1, doc)
        assert result.outcome is LookupOutcome.GROUP_MISS
        assert result.messages == 1  # the unanswered query

    def test_multicast_miss_waits_only_for_live_peers(self, paper_network):
        down = {3}
        grouping = GroupingResult(
            scheme="manual", groups=(CacheGroup(0, (1, 2, 3)),)
        )
        p = GroupProtocol(
            paper_network, grouping, 500.0, mode="multicast",
            group_lookup_ms=0.0, unavailable=down,
        )
        result = p.lookup(1, 7)
        assert result.outcome is LookupOutcome.GROUP_MISS
        # Only the live peer (node 2, RTT 4.0) is waited for.
        assert result.query_ms == pytest.approx(paper_network.rtt(1, 2))
        # 2 queries sent, 1 live reply.
        assert result.messages == 3

    def test_multicast_all_peers_down(self, paper_network):
        down = {2, 3}
        grouping = GroupingResult(
            scheme="manual", groups=(CacheGroup(0, (1, 2, 3)),)
        )
        p = GroupProtocol(
            paper_network, grouping, 500.0, mode="multicast",
            group_lookup_ms=0.5, unavailable=down,
        )
        result = p.lookup(1, 7)
        assert result.outcome is LookupOutcome.GROUP_MISS
        assert result.query_ms == 0.5


class TestLookupDirectory:
    def test_constant_cost(self, paper_network, grouping):
        p = proto(paper_network, grouping, mode="directory", lookup_ms=0.7)
        result = p.lookup(1, 7)
        assert result.query_ms == 0.7
        assert result.messages == 2


class TestConstruction:
    def test_unknown_mode_rejected(self, paper_network, grouping):
        with pytest.raises(SimulationError):
            GroupProtocol(paper_network, grouping, 500.0, mode="gossip")

    def test_negative_lookup_rejected(self, paper_network, grouping):
        with pytest.raises(SimulationError):
            GroupProtocol(paper_network, grouping, 500.0, group_lookup_ms=-1.0)
