"""Tests for feature-vector construction (SL step 2)."""

import pytest

from repro.config import ProbeConfig
from repro.errors import LandmarkSelectionError
from repro.landmarks import LandmarkSet, build_feature_vectors
from repro.probing import Prober


@pytest.fixture
def paper_landmarks():
    """The paper's chosen landmarks: {Os, Ec0, Ec4} = nodes (0, 1, 5)."""
    return LandmarkSet(nodes=(0, 1, 5), min_pairwise_rtt=12.0)


class TestBuildFeatureVectors:
    def test_paper_figure2_vectors(self, exact_prober, paper_landmarks):
        """Figure 2's feature vectors, exactly (no noise)."""
        fv = build_feature_vectors(exact_prober, paper_landmarks)
        expected = {
            1: [12.0, 0.0, 17.0],    # Ec0
            2: [8.0, 4.0, 14.4],     # Ec1
            3: [12.0, 17.0, 17.0],   # Ec2
            4: [8.0, 14.4, 14.4],    # Ec3
            5: [12.0, 17.0, 0.0],    # Ec4
            6: [8.0, 14.4, 4.0],     # Ec5
        }
        for node, vector in expected.items():
            assert fv.vector_of(node).tolist() == vector

    def test_shape_and_defaults(self, exact_prober, paper_landmarks):
        fv = build_feature_vectors(exact_prober, paper_landmarks)
        assert fv.nodes == (1, 2, 3, 4, 5, 6)
        assert fv.matrix.shape == (6, 3)
        assert fv.dimension == 3

    def test_explicit_node_subset(self, exact_prober, paper_landmarks):
        fv = build_feature_vectors(exact_prober, paper_landmarks, nodes=[2, 4])
        assert fv.nodes == (2, 4)
        assert fv.matrix.shape == (2, 3)

    def test_unknown_node_rejected(self, exact_prober, paper_landmarks):
        fv = build_feature_vectors(exact_prober, paper_landmarks)
        with pytest.raises(LandmarkSelectionError):
            fv.vector_of(99)

    def test_matrix_read_only(self, exact_prober, paper_landmarks):
        fv = build_feature_vectors(exact_prober, paper_landmarks)
        with pytest.raises(ValueError):
            fv.matrix[0, 0] = 1.0

    def test_index_of(self, exact_prober, paper_landmarks):
        fv = build_feature_vectors(exact_prober, paper_landmarks)
        index = fv.index_of()
        for node, row in index.items():
            assert fv.nodes[row] == node

    def test_empty_nodes_rejected(self, exact_prober, paper_landmarks):
        with pytest.raises(LandmarkSelectionError):
            build_feature_vectors(exact_prober, paper_landmarks, nodes=[])

    def test_probe_budget_linear(self, paper_network, paper_landmarks):
        """Feature vectors cost N x L probed pairs (self-probes free)."""
        prober = Prober(
            paper_network, config=ProbeConfig(probe_count=1), seed=0
        )
        build_feature_vectors(prober, paper_landmarks)
        # 6 caches x 3 landmarks, minus the two self pairs (Ec0->Ec0
        # and Ec4->Ec4 are free), all distinct unordered pairs.
        assert prober.stats.pairs_measured <= 6 * 3

    def test_landmark_member_zero_column(self, exact_prober, paper_landmarks):
        """A landmark cache's own column entry is zero."""
        fv = build_feature_vectors(exact_prober, paper_landmarks)
        assert fv.vector_of(1)[1] == 0.0  # Ec0's distance to itself
        assert fv.vector_of(5)[2] == 0.0  # Ec4's distance to itself
