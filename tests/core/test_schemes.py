"""Tests for the five group-formation schemes."""

import numpy as np
import pytest

from repro.config import (
    GNPConfig,
    LandmarkConfig,
    SDSLConfig,
)
from repro.core import (
    EuclideanGNPScheme,
    MinDistLandmarksScheme,
    RandomLandmarksScheme,
    SDSLScheme,
    SLScheme,
    scheme_by_name,
)
from repro.errors import SchemeError

LM4 = LandmarkConfig(num_landmarks=4, multiplier=2)


class TestSLScheme:
    def test_partitions_all_caches(self, small_network):
        result = SLScheme(landmark_config=LM4).form_groups(
            small_network, k=5, seed=1
        )
        assert sorted(result.all_members) == small_network.cache_nodes
        assert result.scheme == "SL"
        assert result.num_groups <= 5

    def test_groups_geographically_tight(self, small_network):
        """SL groups have lower mean pairwise RTT than random partitions."""
        from repro.analysis import average_group_interaction_cost
        from repro.core.groups import groups_from_labels, GroupingResult

        sl = SLScheme(landmark_config=LM4).form_groups(
            small_network, k=5, seed=2
        )
        sl_cost = average_group_interaction_cost(small_network, sl)

        rng = np.random.default_rng(0)
        random_costs = []
        for _ in range(10):
            labels = rng.integers(5, size=30)
            groups = groups_from_labels(small_network.cache_nodes, labels)
            random_costs.append(
                average_group_interaction_cost(
                    small_network,
                    GroupingResult(scheme="rand", groups=groups),
                )
            )
        assert sl_cost < np.mean(random_costs)

    def test_k_one(self, small_network):
        result = SLScheme(landmark_config=LM4).form_groups(
            small_network, k=1, seed=1
        )
        assert result.num_groups == 1

    def test_bad_k_rejected(self, small_network):
        with pytest.raises(SchemeError):
            SLScheme(landmark_config=LM4).form_groups(
                small_network, k=0, seed=1
            )

    def test_reproducible(self, small_network):
        a = SLScheme(landmark_config=LM4).form_groups(small_network, 4, seed=9)
        b = SLScheme(landmark_config=LM4).form_groups(small_network, 4, seed=9)
        assert a.membership() == b.membership()

    def test_seeds_differ(self, small_network):
        a = SLScheme(landmark_config=LM4).form_groups(small_network, 6, seed=1)
        b = SLScheme(landmark_config=LM4).form_groups(small_network, 6, seed=2)
        assert a.membership() != b.membership()


class TestSDSLScheme:
    def test_partitions_all_caches(self, small_network):
        result = SDSLScheme(landmark_config=LM4).form_groups(
            small_network, k=5, seed=1
        )
        assert sorted(result.all_members) == small_network.cache_nodes
        assert result.scheme == "SDSL"

    def test_theta_exposed(self):
        assert SDSLScheme(sdsl_config=SDSLConfig(theta=3.0)).theta == 3.0

    def test_near_origin_groups_smaller(self, small_network):
        """SDSL's defining property: group size grows with server distance.

        Averaged over seeds, the correlation between a group's mean
        server distance and its size must be positive and larger than
        SL's.
        """

        def size_distance_correlation(scheme_cls, **kwargs):
            corrs = []
            for seed in range(8):
                scheme = scheme_cls(landmark_config=LM4, **kwargs)
                result = scheme.form_groups(small_network, k=6, seed=seed)
                sizes, dists = [], []
                for group in result.groups:
                    sizes.append(group.size)
                    dists.append(
                        np.mean(
                            [
                                small_network.server_distance(m)
                                for m in group.members
                            ]
                        )
                    )
                if len(set(sizes)) > 1 and len(set(dists)) > 1:
                    corrs.append(np.corrcoef(sizes, dists)[0, 1])
            return np.mean(corrs)

        sdsl_corr = size_distance_correlation(
            SDSLScheme, sdsl_config=SDSLConfig(theta=2.0)
        )
        sl_corr = size_distance_correlation(SLScheme)
        assert sdsl_corr > 0
        assert sdsl_corr > sl_corr

    def test_theta_zero_behaves_like_sl(self, small_network):
        """theta=0 degenerates to uniform seeding (same scheme family)."""
        result = SDSLScheme(
            sdsl_config=SDSLConfig(theta=0.0), landmark_config=LM4
        ).form_groups(small_network, k=4, seed=3)
        assert sorted(result.all_members) == small_network.cache_nodes


class TestBaselineSchemes:
    def test_random_landmarks(self, small_network):
        result = RandomLandmarksScheme(landmark_config=LM4).form_groups(
            small_network, k=4, seed=1
        )
        assert result.scheme == "random-landmarks"
        assert sorted(result.all_members) == small_network.cache_nodes

    def test_mindist_landmarks(self, small_network):
        result = MinDistLandmarksScheme(landmark_config=LM4).form_groups(
            small_network, k=4, seed=1
        )
        assert result.scheme == "mindist-landmarks"
        assert result.landmarks is not None

    def test_gnp_scheme(self, small_network):
        result = EuclideanGNPScheme(
            gnp_config=GNPConfig(dimensions=2, max_iterations=40),
            landmark_config=LM4,
        ).form_groups(small_network, k=4, seed=1)
        assert result.scheme == "euclidean-gnp"
        assert sorted(result.all_members) == small_network.cache_nodes


class TestSchemeByName:
    def test_all_names(self):
        for name in (
            "SL",
            "SDSL",
            "random-landmarks",
            "mindist-landmarks",
            "euclidean-gnp",
        ):
            assert scheme_by_name(name).name == name

    def test_kwargs_forwarded(self):
        scheme = scheme_by_name("SDSL", sdsl_config=SDSLConfig(theta=5.0))
        assert scheme.theta == 5.0

    def test_unknown_rejected(self):
        with pytest.raises(SchemeError):
            scheme_by_name("nope")
