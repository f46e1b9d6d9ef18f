"""Tests for client placement."""

import numpy as np
import pytest

from repro.clients import place_clients
from repro.errors import PlacementError


class TestPlaceClients:
    def test_shapes(self, small_network):
        pop = place_clients(small_network, num_clients=40, seed=1)
        assert pop.num_clients == 40
        assert pop.num_nodes == small_network.distances.size
        assert pop.rtt_to_nodes.shape == (40, 31)

    def test_rtts_finite_positive(self, small_network):
        pop = place_clients(small_network, num_clients=25, seed=2)
        assert np.isfinite(pop.rtt_to_nodes).all()
        assert (pop.rtt_to_nodes >= 0).all()

    def test_reuse_allowed(self, small_network):
        """More clients than stub routers is fine (router sharing)."""
        pop = place_clients(small_network, num_clients=500, seed=3)
        assert pop.num_clients == 500

    def test_nearest_cache(self, small_network):
        pop = place_clients(small_network, num_clients=10, seed=4)
        for client in range(10):
            nearest = pop.nearest_cache(client)
            rtt = pop.rtt_to_cache(client, nearest)
            for cache in small_network.cache_nodes:
                assert rtt <= pop.rtt_to_cache(client, cache) + 1e-9

    def test_nearest_caches_ordered(self, small_network):
        pop = place_clients(small_network, num_clients=5, seed=5)
        top = pop.nearest_caches(0, 5)
        rtts = [pop.rtt_to_cache(0, c) for c in top]
        assert rtts == sorted(rtts)
        assert len(set(top)) == 5

    def test_clients_near_some_cache(self, small_network):
        """With density-scaled topologies, clients sit in cache-served
        access networks: median nearest-cache RTT is small."""
        pop = place_clients(small_network, num_clients=60, seed=6)
        nearest_rtts = pop.rtt_to_nodes[:, 1:].min(axis=1)
        assert np.median(nearest_rtts) < np.median(
            small_network.server_distances()
        )

    def test_requires_graph(self, paper_network):
        with pytest.raises(PlacementError):
            place_clients(paper_network, num_clients=5)

    def test_bad_count_rejected(self, small_network):
        with pytest.raises(PlacementError):
            place_clients(small_network, num_clients=0)

    def test_reproducible(self, small_network):
        a = place_clients(small_network, num_clients=10, seed=7)
        b = place_clients(small_network, num_clients=10, seed=7)
        assert a.client_routers == b.client_routers
        assert np.array_equal(a.rtt_to_nodes, b.rtt_to_nodes)

    def test_bounds_checked(self, small_network):
        pop = place_clients(small_network, num_clients=4, seed=8)
        with pytest.raises(PlacementError):
            pop.rtt_to_cache(9, 1)
        with pytest.raises(PlacementError):
            pop.rtt_to_cache(0, 0)  # origin is not a cache
        with pytest.raises(PlacementError):
            pop.nearest_caches(0, 99)
