"""End-to-end reproduction of the paper's Figures 1 and 2 worked example.

The paper walks a 6-cache network (N=6, K=3, L=3, M=2) through all three
SL steps.  These tests pin the library to that walkthrough.
"""

import pytest

from repro.config import KMeansConfig, LandmarkConfig
from repro.clustering import KMeans
from repro.core import GFCoordinator
from repro.landmarks import GreedyMaxMinSelector, build_feature_vectors
from repro.probing import NoNoise, Prober


class TestFullWalkthrough:
    def test_steps_one_to_three(self, paper_network):
        """PLSet {Ec0,Ec1,Ec3,Ec4} -> landmarks {Os,Ec0,Ec4} -> pairs."""
        prober = Prober(paper_network, noise=NoNoise(), seed=0)
        config = LandmarkConfig(num_landmarks=3, multiplier=2)

        # Step 1 with the paper's PLSet.
        landmarks = GreedyMaxMinSelector().select_from_potential(
            prober, config, [1, 2, 4, 5]
        )
        assert landmarks.nodes == (0, 1, 5)
        assert landmarks.min_pairwise_rtt == pytest.approx(12.0)

        # Step 2: feature vectors for all six caches.
        features = build_feature_vectors(prober, landmarks)
        assert features.matrix.shape == (6, 3)

        # Step 3: K-means (restarted) finds the three natural pairs
        # shown in Figure 2.
        clustering = KMeans(
            k=3, config=KMeansConfig(restarts=10)
        ).fit(features.matrix, seed=1)
        groups = sorted(
            tuple(sorted(features.nodes[i] for i in members))
            for members in clustering.as_groups()
        )
        assert groups == [(1, 2), (3, 4), (5, 6)]

    def test_natural_pairs_minimise_gicost(self, paper_network):
        """The paper's pairing beats every alternative 2-2-2 partition."""
        from itertools import permutations

        from repro.analysis import average_group_interaction_cost
        from repro.core.groups import CacheGroup, GroupingResult

        def cost_of(partition):
            groups = tuple(
                CacheGroup(i, tuple(members))
                for i, members in enumerate(partition)
            )
            return average_group_interaction_cost(
                paper_network,
                GroupingResult(scheme="manual", groups=groups),
            )

        natural = cost_of([(1, 2), (3, 4), (5, 6)])
        caches = [1, 2, 3, 4, 5, 6]
        seen = set()
        for perm in permutations(caches):
            partition = tuple(
                tuple(sorted(perm[i:i + 2])) for i in (0, 2, 4)
            )
            key = tuple(sorted(partition))
            if key in seen or key == ((1, 2), (3, 4), (5, 6)):
                continue
            seen.add(key)
            assert natural <= cost_of(partition)

    def test_coordinator_runs_paper_network(self, paper_network):
        """The full coordinator pipeline works on the paper network."""
        coordinator = GFCoordinator(paper_network, seed=5)
        landmarks = coordinator.choose_landmarks(
            GreedyMaxMinSelector(),
            LandmarkConfig(num_landmarks=3, multiplier=2),
        )
        features = coordinator.build_features(landmarks)
        result = coordinator.cluster(
            features, k=3, scheme_name="SL",
            kmeans_config=KMeansConfig(restarts=10),
        )
        assert sorted(result.all_members) == [1, 2, 3, 4, 5, 6]
        assert result.num_groups == 3
