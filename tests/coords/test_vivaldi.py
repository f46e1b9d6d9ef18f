"""Tests for Vivaldi coordinates (extension)."""

import pytest

from repro.coords import VivaldiCoordinates
from repro.errors import EmbeddingError
from repro.probing import NoNoise, Prober


class TestVivaldi:
    def test_construction(self, small_network):
        v = VivaldiCoordinates(small_network.all_nodes, dimensions=3, seed=0)
        assert v.coordinates.shape == (31, 3)
        assert v.nodes == tuple(small_network.all_nodes)

    def test_observe_moves_towards_target_distance(self):
        v = VivaldiCoordinates([0, 1], dimensions=2, seed=1)
        for _ in range(300):
            v.observe(0, 1, 10.0)
            v.observe(1, 0, 10.0)
        assert v.distance(0, 1) == pytest.approx(10.0, rel=0.15)

    def test_error_decreases_with_training(self, small_network):
        prober = Prober(small_network, noise=NoNoise(), seed=2)
        v = VivaldiCoordinates(small_network.all_nodes, dimensions=4, seed=2)
        before = v.mean_relative_error(prober, samples=150)
        v.run(prober, rounds=25, neighbors_per_round=8)
        after = v.mean_relative_error(prober, samples=150)
        assert after < before

    def test_embedding_quality(self, small_network):
        """After training, typical relative error is moderate (<60%)."""
        prober = Prober(small_network, noise=NoNoise(), seed=3)
        v = VivaldiCoordinates(small_network.all_nodes, dimensions=5, seed=3)
        v.run(prober, rounds=40, neighbors_per_round=10)
        assert v.mean_relative_error(prober, samples=200) < 0.6

    def test_negative_rtt_rejected(self):
        v = VivaldiCoordinates([0, 1], seed=0)
        with pytest.raises(EmbeddingError):
            v.observe(0, 1, -1.0)

    def test_unknown_node_rejected(self):
        v = VivaldiCoordinates([0, 1], seed=0)
        with pytest.raises(EmbeddingError):
            v.observe(0, 99, 1.0)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(EmbeddingError):
            VivaldiCoordinates([0])

    def test_bad_parameters_rejected(self):
        with pytest.raises(EmbeddingError):
            VivaldiCoordinates([0, 1], dimensions=0)
        with pytest.raises(EmbeddingError):
            VivaldiCoordinates([0, 1], ce=0.0)

    def test_bad_run_args_rejected(self, small_network):
        prober = Prober(small_network, seed=0)
        v = VivaldiCoordinates(small_network.all_nodes, seed=0)
        with pytest.raises(EmbeddingError):
            v.run(prober, rounds=0)
