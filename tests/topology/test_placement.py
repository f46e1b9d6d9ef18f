"""Tests for repro.topology.placement."""

import numpy as np
import pytest

from repro.config import TransitStubConfig
from repro.errors import ConfigurationError, PlacementError
from repro.topology.graph import NetworkGraph, RouterTier
from repro.topology.placement import place_network
from repro.topology.transit_stub import generate_transit_stub


@pytest.fixture
def topology(rng):
    return generate_transit_stub(
        TransitStubConfig(
            transit_domains=2,
            transit_nodes_per_domain=2,
            stub_domains_per_transit_node=2,
            stub_nodes_per_domain=4,
        ),
        rng,
    )


class TestPlaceNetwork:
    def test_origin_on_transit(self, topology, rng):
        placement = place_network(topology, 5, rng)
        assert topology.tier_of(placement.origin_router) is RouterTier.TRANSIT

    def test_origin_on_stub_without_transit_tier(self, rng):
        g = NetworkGraph()
        for router in range(3):
            g.add_router(router, RouterTier.STUB, "S0")
        g.add_link(0, 1, 1.0)
        g.add_link(1, 2, 1.0)
        placement = place_network(g, 2, rng)
        assert g.tier_of(placement.origin_router) is RouterTier.STUB
        assert placement.origin_router not in placement.cache_routers

    def test_caches_on_distinct_stub_routers(self, topology, rng):
        placement = place_network(topology, 10, rng)
        assert len(set(placement.cache_routers)) == 10
        for router in placement.cache_routers:
            assert topology.tier_of(router) is RouterTier.STUB

    def test_node_routers_layout(self, topology, rng):
        placement = place_network(topology, 3, rng)
        nodes = placement.node_routers
        assert nodes[0] == placement.origin_router
        assert tuple(nodes[1:]) == placement.cache_routers
        assert placement.num_caches == 3

    def test_too_many_caches_rejected(self, topology, rng):
        with pytest.raises(PlacementError):
            place_network(topology, 1000, rng)

    def test_zero_caches_rejected(self, topology, rng):
        with pytest.raises(ConfigurationError):
            place_network(topology, 0, rng)

    def test_transit_only_topology(self, rng):
        g = NetworkGraph()
        g.add_router(0, RouterTier.TRANSIT, "T0")
        g.add_router(1, RouterTier.TRANSIT, "T0")
        g.add_link(0, 1, 1.0)
        placement = place_network(g, 1, rng)
        assert placement.origin_router in (0, 1)
        assert placement.cache_routers[0] != placement.origin_router

    def test_single_router_topology_rejected(self, rng):
        g = NetworkGraph()
        g.add_router(0, RouterTier.TRANSIT, "T0")
        with pytest.raises(PlacementError):
            place_network(g, 1, rng)

    def test_reproducible(self, topology):
        a = place_network(
            topology, 6, np.random.default_rng(4)
        )
        b = place_network(
            topology, 6, np.random.default_rng(4)
        )
        assert a == b
