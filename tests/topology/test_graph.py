"""Tests for repro.topology.graph: the router graph model."""

import pytest

from repro.errors import DisconnectedTopologyError, TopologyError
from repro.topology.graph import NetworkGraph, RouterTier


def make_triangle():
    g = NetworkGraph()
    g.add_router(0, RouterTier.TRANSIT, "T0")
    g.add_router(1, RouterTier.STUB, "S0")
    g.add_router(2, RouterTier.STUB, "S0")
    g.add_link(0, 1, 5.0)
    g.add_link(1, 2, 2.0)
    g.add_link(0, 2, 9.0)
    return g


class TestConstruction:
    def test_counts(self):
        g = make_triangle()
        assert g.router_count == 3
        assert g.link_count == 3

    def test_duplicate_router_rejected(self):
        g = NetworkGraph()
        g.add_router(0, RouterTier.STUB, "S0")
        with pytest.raises(TopologyError):
            g.add_router(0, RouterTier.STUB, "S0")

    def test_self_loop_rejected(self):
        g = NetworkGraph()
        g.add_router(0, RouterTier.STUB, "S0")
        with pytest.raises(TopologyError):
            g.add_link(0, 0, 1.0)

    def test_link_to_missing_router_rejected(self):
        g = NetworkGraph()
        g.add_router(0, RouterTier.STUB, "S0")
        with pytest.raises(TopologyError):
            g.add_link(0, 99, 1.0)

    def test_non_positive_latency_rejected(self):
        g = NetworkGraph()
        g.add_router(0, RouterTier.STUB, "S0")
        g.add_router(1, RouterTier.STUB, "S0")
        with pytest.raises(TopologyError):
            g.add_link(0, 1, 0.0)

    def test_parallel_link_keeps_minimum(self):
        g = NetworkGraph()
        g.add_router(0, RouterTier.STUB, "S0")
        g.add_router(1, RouterTier.STUB, "S0")
        g.add_link(0, 1, 5.0)
        g.add_link(0, 1, 3.0)
        edge = g.as_networkx()[0][1]
        assert edge[NetworkGraph.LATENCY_KEY] == 3.0
        g.add_link(0, 1, 7.0)
        assert edge[NetworkGraph.LATENCY_KEY] == 3.0
        assert g.link_count == 1


class TestInspection:
    def test_tiers(self):
        g = make_triangle()
        assert g.tier_of(0) is RouterTier.TRANSIT
        assert g.routers_in_tier(RouterTier.STUB) == [1, 2]

    def test_domains(self):
        g = make_triangle()
        assert g.domain_of(1) == "S0"
        assert g.domains() == {"T0": [0], "S0": [1, 2]}

    def test_unknown_router_raises(self):
        g = make_triangle()
        with pytest.raises(TopologyError):
            g.tier_of(42)
        with pytest.raises(TopologyError):
            g.domain_of(42)

    def test_position_default_none(self):
        g = make_triangle()
        assert g.as_networkx().nodes[0]["position"] is None

    def test_position_roundtrip(self):
        g = NetworkGraph()
        g.add_router(0, RouterTier.STUB, "S0", position=(0.25, 0.75))
        assert g.as_networkx().nodes[0]["position"] == (0.25, 0.75)


class TestConnectivity:
    def test_connected(self):
        assert make_triangle().is_connected()

    def test_disconnected(self):
        g = make_triangle()
        g.add_router(9, RouterTier.STUB, "S9")
        assert not g.is_connected()
        with pytest.raises(DisconnectedTopologyError):
            g.require_connected()

    def test_empty_graph_not_connected(self):
        assert not NetworkGraph().is_connected()


class TestSparseExport:
    def test_adjacency_symmetric(self):
        g = make_triangle()
        routers, matrix, index_of = g.to_sparse_adjacency()
        dense = matrix.toarray()
        assert dense.shape == (3, 3)
        assert (dense == dense.T).all()
        assert dense[index_of[0], index_of[1]] == 5.0

    def test_router_index_consistent(self):
        g = make_triangle()
        routers, _matrix, index_of = g.to_sparse_adjacency()
        for router in g.routers():
            assert routers[index_of[router]] == router
