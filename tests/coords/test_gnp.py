"""Tests for the GNP Euclidean embedding."""

import numpy as np
import pytest

from repro.config import GNPConfig, LandmarkConfig
from repro.errors import EmbeddingError
from repro.landmarks import GreedyMaxMinSelector, build_feature_vectors
from repro.probing import NoNoise, Prober
from repro.coords import embed_gnp
from repro.coords.gnp import _scatter_pairs


@pytest.fixture
def small_embedding_inputs(small_network):
    prober = Prober(small_network, noise=NoNoise(), seed=0)
    landmarks = GreedyMaxMinSelector().select(
        prober, LandmarkConfig(num_landmarks=8, multiplier=3),
        np.random.default_rng(0),
    )
    features = build_feature_vectors(prober, landmarks)
    return prober, features


class TestEmbedGNP:
    def test_shapes(self, small_embedding_inputs):
        prober, features = small_embedding_inputs
        emb = embed_gnp(
            prober, features, config=GNPConfig(dimensions=4), seed=1
        )
        assert emb.node_coords.shape == (30, 4)
        assert emb.landmark_coords.shape == (8, 4)
        assert emb.dimensions == 4
        assert emb.nodes == features.nodes

    def test_landmark_fit_reasonable(self, small_embedding_inputs):
        """Landmark self-embedding reaches a modest relative error."""
        prober, features = small_embedding_inputs
        emb = embed_gnp(
            prober, features, config=GNPConfig(dimensions=5), seed=1
        )
        assert emb.landmark_fit_error < 0.35

    def test_coordinate_distance_correlates_with_rtt(
        self, small_network, small_embedding_inputs
    ):
        """Embedded distances track true RTTs (rank correlation)."""
        from scipy.stats import spearmanr

        prober, features = small_embedding_inputs
        emb = embed_gnp(
            prober, features, config=GNPConfig(dimensions=5), seed=2
        )
        true, predicted = [], []
        nodes = features.nodes
        for i in range(0, len(nodes), 3):
            for j in range(i + 1, len(nodes), 3):
                true.append(small_network.rtt(nodes[i], nodes[j]))
                predicted.append(emb.coordinate_distance(i, j))
        rho, _p = spearmanr(true, predicted)
        assert rho > 0.7

    def test_dimension_must_be_below_landmark_count(
        self, small_embedding_inputs
    ):
        prober, features = small_embedding_inputs
        with pytest.raises(EmbeddingError):
            embed_gnp(prober, features, config=GNPConfig(dimensions=8))

    def test_coords_read_only(self, small_embedding_inputs):
        prober, features = small_embedding_inputs
        emb = embed_gnp(
            prober, features, config=GNPConfig(dimensions=3), seed=0
        )
        with pytest.raises(ValueError):
            emb.node_coords[0, 0] = 1.0

    def test_reproducible(self, small_embedding_inputs):
        prober, features = small_embedding_inputs
        cfg = GNPConfig(dimensions=3, max_iterations=50)
        a = embed_gnp(prober, features, config=cfg, seed=5)
        # The prober's rng advanced, so rebuild an identical one.
        prober_b, features_b = small_embedding_inputs
        b = embed_gnp(prober_b, features_b, config=cfg, seed=5)
        # Same seed and same (noise-free) measurements: same landmarks fit.
        assert a.landmark_fit_error == pytest.approx(
            b.landmark_fit_error, abs=1e-9
        )


class TestScatterPairs:
    """The bincount gradient scatter against the ``np.add.at`` pair."""

    @pytest.mark.parametrize("seed", range(40))
    def test_bit_identical_to_add_at(self, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(2, 30))
        dims = int(rng.integers(1, 9))
        iu, ju = np.triu_indices(count, k=1)
        contrib = rng.normal(0.0, 10.0 ** rng.integers(-3, 4),
                             size=(len(iu), dims))
        # Exact zeros, as the guarded non-differentiable pairs give.
        contrib[rng.random(len(iu)) < 0.2] = 0.0
        expected = np.zeros((count, dims))
        np.add.at(expected, iu, contrib)
        np.add.at(expected, ju, -contrib)
        got = _scatter_pairs(np.concatenate((iu, ju)), contrib, count)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
