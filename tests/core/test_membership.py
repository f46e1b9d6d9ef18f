"""Tests for dynamic group membership (join/leave under churn)."""

import pytest

from repro.config import LandmarkConfig
from repro.core.groups import CacheGroup, GroupingResult
from repro.core.membership import MembershipManager
from repro.core.schemes import SLScheme
from repro.errors import SchemeError
from repro.probing import NoNoise, Prober


@pytest.fixture
def paper_grouping():
    """The paper network's natural pairs (no provenance)."""
    return GroupingResult(
        scheme="manual",
        groups=(
            CacheGroup(0, (1, 2)),
            CacheGroup(1, (3, 4)),
            CacheGroup(2, (5, 6)),
        ),
    )


@pytest.fixture
def sl_grouping(small_network):
    """A provenance-carrying SL grouping over the 30-cache network."""
    return SLScheme(
        landmark_config=LandmarkConfig(num_landmarks=5)
    ).form_groups(small_network, 5, seed=3)


class TestPeerProbeJoin:
    def test_joins_nearest_group(self, paper_network, paper_grouping):
        """Removing Ec5 (node 6) and re-joining it lands next to Ec4."""
        manager = MembershipManager(paper_grouping)
        manager.leave(6)
        prober = Prober(paper_network, noise=NoNoise(), seed=0)
        group_id = manager.join(prober, 6, seed=1, samples_per_group=2)
        # Node 6's nearest peer is node 5 (RTT 4.0), in group 2.
        assert group_id == 2
        assert 6 in manager.members_of(2)

    def test_double_join_rejected(self, paper_network, paper_grouping):
        manager = MembershipManager(paper_grouping)
        prober = Prober(paper_network, seed=0)
        with pytest.raises(SchemeError):
            manager.join(prober, 1)

    def test_bad_samples_rejected(self, paper_network, paper_grouping):
        manager = MembershipManager(paper_grouping)
        manager.leave(1)
        prober = Prober(paper_network, seed=0)
        with pytest.raises(SchemeError):
            manager.join(prober, 1, samples_per_group=0)


class TestLandmarkJoin:
    def test_rejoining_cache_returns_to_similar_group(
        self, small_network, sl_grouping
    ):
        """A cache that leaves and rejoins lands in a group containing
        at least one of its former peers (feature-space locality)."""
        manager = MembershipManager(sl_grouping)
        prober = Prober(small_network, noise=NoNoise(), seed=0)
        moved = 0
        checked = 0
        for node in list(small_network.cache_nodes)[:10]:
            former_peers = set(
                manager.members_of(manager.group_of(node))
            ) - {node}
            if not former_peers:
                continue
            checked += 1
            manager.leave(node)
            new_group = manager.join(prober, node)
            if not former_peers & set(manager.members_of(new_group)):
                moved += 1
        assert checked > 0
        # Most rejoining caches meet a former peer again.
        assert moved <= checked // 3

    def test_uses_landmark_strategy_when_provenance_present(
        self, small_network, sl_grouping
    ):
        manager = MembershipManager(sl_grouping)
        prober = Prober(small_network, noise=NoNoise(), seed=0)
        manager.leave(1)
        before = prober.stats.pairs_measured
        manager.join(prober, 1)
        # Landmark strategy probes exactly the landmark set.
        probed = prober.stats.pairs_measured - before
        assert probed <= len(sl_grouping.landmarks)


class TestLeave:
    def test_leave_removes_member(self, paper_grouping):
        manager = MembershipManager(paper_grouping)
        group_id = manager.leave(3)
        assert group_id == 1
        assert manager.members_of(1) == [4]
        with pytest.raises(SchemeError):
            manager.group_of(3)

    def test_emptied_group_dropped(self, paper_grouping):
        manager = MembershipManager(paper_grouping)
        manager.leave(1)
        manager.leave(2)
        assert manager.num_groups == 2
        with pytest.raises(SchemeError):
            manager.members_of(0)

    def test_leave_unknown_rejected(self, paper_grouping):
        manager = MembershipManager(paper_grouping)
        with pytest.raises(SchemeError):
            manager.leave(99)


class TestChurnAccounting:
    def test_churn_fraction(self, paper_network, paper_grouping):
        manager = MembershipManager(paper_grouping)
        assert manager.churn_fraction() == 0.0
        manager.leave(1)
        assert manager.churn_fraction() == pytest.approx(1 / 6)
        prober = Prober(paper_network, noise=NoNoise(), seed=0)
        manager.join(prober, 1, seed=0)
        assert manager.churn_fraction() == pytest.approx(2 / 6)

    def test_needs_reclustering(self, paper_grouping):
        manager = MembershipManager(paper_grouping)
        assert not manager.needs_reclustering(threshold=0.25)
        manager.leave(1)
        manager.leave(3)
        assert manager.needs_reclustering(threshold=0.25)

    def test_bad_threshold_rejected(self, paper_grouping):
        manager = MembershipManager(paper_grouping)
        with pytest.raises(SchemeError):
            manager.needs_reclustering(threshold=0.0)


class TestSnapshot:
    def test_current_grouping_valid_partition(
        self, paper_network, paper_grouping
    ):
        manager = MembershipManager(paper_grouping)
        manager.leave(6)
        prober = Prober(paper_network, noise=NoNoise(), seed=0)
        manager.join(prober, 6, seed=0)
        snapshot = manager.current_grouping()
        assert sorted(snapshot.all_members) == [1, 2, 3, 4, 5, 6]
        assert snapshot.scheme == "manual+churn"

    def test_snapshot_usable_by_simulator(self, small_network, sl_grouping):
        from repro.config import DocumentConfig, WorkloadConfig
        from repro.simulator import simulate
        from repro.workload import generate_workload

        manager = MembershipManager(sl_grouping)
        prober = Prober(small_network, seed=0)
        manager.leave(5)
        manager.join(prober, 5)
        workload = generate_workload(
            small_network.cache_nodes,
            WorkloadConfig(
                documents=DocumentConfig(num_documents=40),
                requests_per_cache=20,
            ),
            seed=1,
        )
        result = simulate(
            small_network, manager.current_grouping(), workload
        )
        assert result.average_latency_ms() > 0


class TestFailedAwareJoin:
    """Peer-probe joins skip caches that are currently down."""

    def test_group_with_only_failed_members_skipped(
        self, paper_network, paper_grouping
    ):
        manager = MembershipManager(paper_grouping)
        manager.leave(6)
        prober = Prober(paper_network, noise=NoNoise(), seed=0)
        # Node 6's nearest peer (node 5) is down, emptying group 2's
        # sampling pool; the join must land in a live group instead.
        group_id = manager.join(
            prober, 6, seed=1, samples_per_group=2, failed={5}
        )
        assert group_id != 2
        assert 6 in manager.members_of(group_id)

    def test_all_groups_dead_raises_actionable_error(
        self, paper_network, paper_grouping
    ):
        manager = MembershipManager(paper_grouping)
        manager.leave(6)
        prober = Prober(paper_network, noise=NoNoise(), seed=0)
        with pytest.raises(SchemeError, match="failed members"):
            manager.join(
                prober, 6, seed=1, failed={1, 2, 3, 4, 5}
            )

    def test_empty_failed_set_is_byte_identical(
        self, paper_network, paper_grouping
    ):
        """``failed=set()`` must not shift pools or RNG draws."""
        results = []
        for failed in (None, set()):
            manager = MembershipManager(paper_grouping)
            manager.leave(6)
            prober = Prober(paper_network, seed=0)
            group_id = manager.join(
                prober, 6, seed=1, samples_per_group=2, failed=failed
            )
            results.append((group_id, prober.stats.probes_sent))
        assert results[0] == results[1]

    def test_partial_failures_leave_live_peers_probed(
        self, paper_network, paper_grouping
    ):
        manager = MembershipManager(paper_grouping)
        manager.leave(6)
        prober = Prober(paper_network, noise=NoNoise(), seed=0)
        # Group 2 still has node 5 alive; the dead node 3 only thins
        # group 1's pool.
        group_id = manager.join(
            prober, 6, seed=1, samples_per_group=2, failed={3}
        )
        assert group_id == 2

    def test_landmark_strategy_ignores_failed(
        self, small_network, sl_grouping
    ):
        """Landmark joins probe landmarks, not peers: ``failed`` is
        documented as a peer-probe concern and changes nothing."""
        results = []
        for failed in (None, {1}):
            manager = MembershipManager(sl_grouping)
            manager.leave(5)
            prober = Prober(small_network, noise=NoNoise(), seed=0)
            results.append(manager.join(prober, 5, failed=failed))
        assert results[0] == results[1]
