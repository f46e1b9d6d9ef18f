"""Tests for CacheGroup / GroupingResult."""

import pytest

from repro.core.groups import (
    CacheGroup,
    GroupingResult,
    groups_from_labels,
    single_group,
    singleton_groups,
)
from repro.errors import SchemeError


class TestCacheGroup:
    def test_basics(self):
        g = CacheGroup(group_id=0, members=(1, 2, 3))
        assert g.size == 3
        assert 2 in g
        assert list(g) == [1, 2, 3]
        assert g.peers_of(2) == [1, 3]

    def test_empty_rejected(self):
        with pytest.raises(SchemeError):
            CacheGroup(group_id=0, members=())

    def test_duplicates_rejected(self):
        with pytest.raises(SchemeError):
            CacheGroup(group_id=0, members=(1, 1))

    def test_negative_id_rejected(self):
        with pytest.raises(SchemeError):
            CacheGroup(group_id=-1, members=(1,))

    def test_peers_of_non_member(self):
        g = CacheGroup(group_id=0, members=(1, 2))
        with pytest.raises(SchemeError):
            g.peers_of(3)


class TestGroupingResult:
    def test_partition(self):
        result = GroupingResult(
            scheme="test",
            groups=(
                CacheGroup(0, (1, 2)),
                CacheGroup(1, (3,)),
            ),
        )
        assert result.num_groups == 2
        assert result.all_members == [1, 2, 3]
        assert result.group_of(3).group_id == 1
        assert result.membership() == {1: 0, 2: 0, 3: 1}
        assert result.sizes() == [2, 1]

    def test_overlap_rejected(self):
        with pytest.raises(SchemeError):
            GroupingResult(
                scheme="test",
                groups=(CacheGroup(0, (1, 2)), CacheGroup(1, (2,))),
            )

    def test_no_groups_rejected(self):
        with pytest.raises(SchemeError):
            GroupingResult(scheme="test", groups=())

    def test_group_of_missing(self):
        result = GroupingResult(
            scheme="test", groups=(CacheGroup(0, (1,)),)
        )
        with pytest.raises(SchemeError):
            result.group_of(9)

    def test_formed_groupings_compare_by_outcome(self, small_network):
        from repro.config import LandmarkConfig
        from repro.core.schemes import SLScheme

        scheme = SLScheme(landmark_config=LandmarkConfig(num_landmarks=6))
        first = scheme.form_groups(small_network, 4, seed=1)
        second = scheme.form_groups(small_network, 4, seed=1)
        assert first.features is not None
        assert first == second
        assert first != scheme.form_groups(small_network, 4, seed=2)


class TestGroupsFromLabels:
    def test_dense_renumbering(self):
        groups = groups_from_labels([10, 11, 12], [5, 2, 5])
        assert len(groups) == 2
        assert groups[0].group_id == 0
        assert groups[0].members == (11,)   # label 2 first
        assert groups[1].members == (10, 12)

    def test_size_mismatch_rejected(self):
        with pytest.raises(SchemeError):
            groups_from_labels([1, 2], [0])


class TestTrivialGroupings:
    def test_single_group(self):
        result = single_group([1, 2, 3])
        assert result.num_groups == 1
        assert result.groups[0].members == (1, 2, 3)
        assert result.scheme == "single-group"

    def test_singleton_groups(self):
        result = singleton_groups([1, 2, 3])
        assert result.num_groups == 3
        assert result.sizes() == [1, 1, 1]
        assert result.scheme == "no-cooperation"
