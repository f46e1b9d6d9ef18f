"""Tests for the average group interaction cost metric."""

from itertools import combinations

import numpy as np
import pytest

from repro.analysis import average_group_interaction_cost
from repro.analysis.gicost import group_interaction_cost, interaction_cost
from repro.core.groups import CacheGroup, GroupingResult
from repro.errors import SchemeError, TopologyError


def grouping(*member_tuples):
    return GroupingResult(
        scheme="manual",
        groups=tuple(
            CacheGroup(i, members) for i, members in enumerate(member_tuples)
        ),
    )


class TestInteractionCost:
    def test_rtt_plus_transfer(self, paper_network):
        assert interaction_cost(paper_network, 1, 2) == 4.0
        assert interaction_cost(
            paper_network, 1, 2, avg_doc_transfer_ms=3.0
        ) == 7.0

    def test_negative_transfer_rejected(self, paper_network):
        with pytest.raises(SchemeError):
            interaction_cost(paper_network, 1, 2, avg_doc_transfer_ms=-1.0)


class TestGroupInteractionCost:
    def test_pair(self, paper_network):
        g = CacheGroup(0, (1, 2))
        assert group_interaction_cost(paper_network, g) == 4.0

    def test_triple_average(self, paper_network):
        g = CacheGroup(0, (1, 2, 3))
        expected = (4.0 + 17.0 + 14.4) / 3
        assert group_interaction_cost(paper_network, g) == pytest.approx(
            expected
        )

    def test_singleton_zero(self, paper_network):
        assert group_interaction_cost(paper_network, CacheGroup(0, (1,))) == 0.0


class TestAverageGICost:
    def test_paper_natural_grouping(self, paper_network):
        """Natural pairs all have RTT 4 -> average GICost is 4."""
        g = grouping((1, 2), (3, 4), (5, 6))
        assert average_group_interaction_cost(paper_network, g) == 4.0

    def test_mean_over_groups(self, paper_network):
        g = grouping((1, 2), (3, 5))  # costs 4.0 and 17.0
        assert average_group_interaction_cost(
            paper_network, g
        ) == pytest.approx(10.5)

    def test_singletons_pull_average_down(self, paper_network):
        g = grouping((1, 2), (3,), (4,))
        assert average_group_interaction_cost(
            paper_network, g
        ) == pytest.approx(4.0 / 3)

    def test_skip_singletons(self, paper_network):
        g = grouping((1, 2), (3,), (4,))
        assert average_group_interaction_cost(
            paper_network, g, skip_singletons=True
        ) == pytest.approx(4.0)

    def test_all_singletons_skip(self, paper_network):
        g = grouping((1,), (2,))
        assert average_group_interaction_cost(
            paper_network, g, skip_singletons=True
        ) == 0.0

    def test_transfer_shifts_cost(self, paper_network):
        g = grouping((1, 2))
        base = average_group_interaction_cost(paper_network, g)
        shifted = average_group_interaction_cost(
            paper_network, g, avg_doc_transfer_ms=5.0
        )
        assert shifted == base + 5.0


class TestAgainstPairLoop:
    """The array gather equals the per-pair ``network.rtt`` definition."""

    @staticmethod
    def _pair_loop(network, group, avg_doc_transfer_ms):
        costs = [
            network.rtt(a, b) + avg_doc_transfer_ms
            for a, b in combinations(group.members, 2)
        ]
        return sum(costs) / len(costs)

    @pytest.mark.parametrize("transfer", [0.0, 0.1, 3.7])
    def test_bit_identical(self, small_network, transfer):
        rng = np.random.default_rng(11)
        caches = small_network.cache_nodes
        for size in (2, 3, 7, 16, len(caches)):
            members = tuple(
                int(node) for node in rng.choice(caches, size, replace=False)
            )
            group = CacheGroup(0, members)
            got = group_interaction_cost(small_network, group, transfer)
            expected = self._pair_loop(small_network, group, transfer)
            assert np.float64(got).view(np.int64) == (
                np.float64(expected).view(np.int64)
            )

    @pytest.mark.parametrize(
        "members", [(1, 99, 2), (1, 2, -3, 50), (70, 1)]
    )
    def test_unknown_member_raises_as_the_pair_loop_did(
        self, paper_network, members
    ):
        group = CacheGroup(0, members)
        with pytest.raises(TopologyError) as old:
            self._pair_loop(paper_network, group, 0.0)
        with pytest.raises(TopologyError) as new:
            group_interaction_cost(paper_network, group)
        assert str(new.value) == str(old.value)

    def test_negative_transfer_rejected_before_members(self, paper_network):
        with pytest.raises(SchemeError):
            group_interaction_cost(
                paper_network, CacheGroup(0, (1, 99)), avg_doc_transfer_ms=-1.0
            )
