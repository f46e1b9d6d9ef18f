"""Tests for the GF-Coordinator pipeline steps."""

import numpy as np
import pytest

from repro.config import LandmarkConfig, ProbeConfig
from repro.core import GFCoordinator
from repro.errors import SchemeError
from repro.landmarks import GreedyMaxMinSelector, RandomSelector


@pytest.fixture
def coordinator(small_network):
    return GFCoordinator(
        small_network,
        probe_config=ProbeConfig(jitter_std=0.0),
        seed=7,
    )


class TestSteps:
    def test_choose_landmarks(self, coordinator):
        landmarks = coordinator.choose_landmarks(
            GreedyMaxMinSelector(), LandmarkConfig(num_landmarks=5)
        )
        assert len(landmarks) == 5
        assert landmarks.nodes[0] == coordinator.network.origin

    def test_build_features(self, coordinator):
        landmarks = coordinator.choose_landmarks(
            GreedyMaxMinSelector(), LandmarkConfig(num_landmarks=5)
        )
        features = coordinator.build_features(landmarks)
        assert features.matrix.shape == (30, 5)

    def test_measured_server_distances_match_truth(
        self, coordinator, small_network
    ):
        """With no probe noise, column 0 equals true server distances."""
        landmarks = coordinator.choose_landmarks(
            GreedyMaxMinSelector(), LandmarkConfig(num_landmarks=4)
        )
        features = coordinator.build_features(landmarks)
        measured = coordinator.measured_server_distances(features)
        assert np.allclose(measured, small_network.server_distances())

    def test_cluster_produces_partition(self, coordinator, small_network):
        landmarks = coordinator.choose_landmarks(
            GreedyMaxMinSelector(), LandmarkConfig(num_landmarks=4)
        )
        features = coordinator.build_features(landmarks)
        result = coordinator.cluster(features, k=5, scheme_name="test")
        assert result.num_groups <= 5
        assert sorted(result.all_members) == small_network.cache_nodes
        assert result.landmarks is landmarks
        assert result.clustering is not None

    def test_cluster_with_custom_points(self, coordinator):
        landmarks = coordinator.choose_landmarks(
            RandomSelector(), LandmarkConfig(num_landmarks=3)
        )
        features = coordinator.build_features(landmarks)
        points = np.arange(60, dtype=float).reshape(30, 2)
        result = coordinator.cluster(
            features, k=3, scheme_name="custom", points=points
        )
        assert result.num_groups == 3

    def test_cluster_k_bounds(self, coordinator):
        landmarks = coordinator.choose_landmarks(
            RandomSelector(), LandmarkConfig(num_landmarks=3)
        )
        features = coordinator.build_features(landmarks)
        with pytest.raises(SchemeError):
            coordinator.cluster(features, k=0, scheme_name="bad")
        with pytest.raises(SchemeError):
            coordinator.cluster(features, k=31, scheme_name="bad")

    def test_cluster_points_shape_checked(self, coordinator):
        landmarks = coordinator.choose_landmarks(
            RandomSelector(), LandmarkConfig(num_landmarks=3)
        )
        features = coordinator.build_features(landmarks)
        with pytest.raises(SchemeError):
            coordinator.cluster(
                features, k=2, scheme_name="bad", points=np.zeros((5, 2))
            )

    def test_probe_accounting_flows_through(self, coordinator):
        landmarks = coordinator.choose_landmarks(
            GreedyMaxMinSelector(), LandmarkConfig(num_landmarks=4)
        )
        assert coordinator.prober.stats.probes_sent > 0
        before = coordinator.prober.stats.probes_sent
        coordinator.build_features(landmarks)
        assert coordinator.prober.stats.probes_sent > before

    def test_reproducible(self, small_network):
        def run():
            c = GFCoordinator(small_network, seed=3)
            lm = c.choose_landmarks(
                GreedyMaxMinSelector(), LandmarkConfig(num_landmarks=4)
            )
            fv = c.build_features(lm)
            return c.cluster(fv, k=4, scheme_name="x")

        a, b = run(), run()
        assert a.membership() == b.membership()
