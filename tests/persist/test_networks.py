"""Tests for network persistence."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.persist import load_network, save_network
from repro.topology import build_network


class TestNetworkRoundTrip:
    def test_distances_preserved(self, tmp_path):
        network = build_network(num_caches=12, seed=4)
        path = tmp_path / "net.npz"
        save_network(network, path)
        loaded = load_network(path)
        assert np.array_equal(
            loaded.distances.as_array(), network.distances.as_array()
        )
        assert loaded.num_caches == 12

    def test_placement_preserved(self, tmp_path):
        network = build_network(num_caches=8, seed=5)
        path = tmp_path / "net.npz"
        save_network(network, path)
        loaded = load_network(path)
        assert loaded.placement == network.placement

    def test_placement_optional(self, tmp_path, paper_network):
        path = tmp_path / "paper.npz"
        save_network(paper_network, path)
        loaded = load_network(path)
        assert loaded.placement is None
        assert loaded.rtt(1, 2) == 4.0

    def test_loaded_network_usable_by_schemes(self, tmp_path):
        from repro.config import LandmarkConfig
        from repro.core.schemes import SLScheme

        network = build_network(num_caches=15, seed=6)
        path = tmp_path / "net.npz"
        save_network(network, path)
        loaded = load_network(path)
        grouping = SLScheme(
            landmark_config=LandmarkConfig(num_landmarks=4)
        ).form_groups(loaded, 3, seed=1)
        assert sorted(grouping.all_members) == loaded.cache_nodes

    def test_graph_not_persisted(self, tmp_path):
        network = build_network(num_caches=6, seed=7)
        path = tmp_path / "net.npz"
        save_network(network, path)
        assert load_network(path).graph is None

    def test_bad_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, unrelated=np.zeros(3))
        with pytest.raises(ReproError):
            load_network(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "old.npz"
        np.savez(
            path,
            format_version=np.asarray([99]),
            rtt_ms=np.zeros((2, 2)),
        )
        with pytest.raises(ReproError):
            load_network(path)
