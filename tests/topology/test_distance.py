"""Tests for repro.topology.distance: RTT matrices."""

import numpy as np
import pytest

from repro.errors import DisconnectedTopologyError, TopologyError
from repro.topology.distance import (
    DistanceMatrix,
    compute_rtt_matrix,
    pairwise_rtt,
)
from repro.topology.graph import NetworkGraph, RouterTier


def line_graph():
    """0 --1ms-- 1 --2ms-- 2"""
    g = NetworkGraph()
    for r in range(3):
        g.add_router(r, RouterTier.STUB, "S0")
    g.add_link(0, 1, 1.0)
    g.add_link(1, 2, 2.0)
    return g


class TestDistanceMatrix:
    def test_basic_access(self):
        m = DistanceMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert m.size == 2
        assert m.rtt(0, 1) == 2.0
        assert m.one_way(0, 1) == 1.0
        assert m.rtt(1, 1) == 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(TopologyError):
            DistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(TopologyError):
            DistanceMatrix(np.array([[1.0, 2.0], [2.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(TopologyError):
            DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_infinite(self):
        with pytest.raises(DisconnectedTopologyError):
            DistanceMatrix(np.array([[0.0, np.inf], [np.inf, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(TopologyError):
            DistanceMatrix(np.zeros((2, 3)))

    def test_out_of_range_node(self):
        m = DistanceMatrix(np.zeros((2, 2)))
        with pytest.raises(TopologyError):
            m.rtt(0, 5)

    def test_matrix_read_only(self):
        m = DistanceMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            m.as_array()[0, 1] = 5.0

    def test_submatrix(self):
        base = np.array(
            [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]
        )
        m = DistanceMatrix(base)
        sub = m.submatrix([0, 2])
        assert sub.tolist() == [[0.0, 2.0], [2.0, 0.0]]

    def test_submatrix_out_of_range(self):
        m = DistanceMatrix(np.zeros((2, 2)))
        with pytest.raises(TopologyError):
            m.submatrix([0, 5])


class TestComputeRttMatrix:
    def test_shortest_paths_doubled(self):
        g = line_graph()
        m = compute_rtt_matrix(g, [0, 1, 2])
        assert m.rtt(0, 1) == pytest.approx(2.0)   # 2 * 1ms
        assert m.rtt(1, 2) == pytest.approx(4.0)   # 2 * 2ms
        assert m.rtt(0, 2) == pytest.approx(6.0)   # 2 * 3ms

    def test_subset_of_routers(self):
        g = line_graph()
        m = compute_rtt_matrix(g, [0, 2])
        assert m.size == 2
        assert m.rtt(0, 1) == pytest.approx(6.0)

    def test_same_router_zero(self):
        g = line_graph()
        m = compute_rtt_matrix(g, [0, 0])
        assert m.rtt(0, 1) == 0.0

    def test_takes_shortcut(self):
        g = line_graph()
        g.add_link(0, 2, 0.5)
        m = compute_rtt_matrix(g, [0, 2])
        assert m.rtt(0, 1) == pytest.approx(1.0)

    def test_disconnected_raises(self):
        g = line_graph()
        g.add_router(9, RouterTier.STUB, "S9")
        with pytest.raises(DisconnectedTopologyError):
            compute_rtt_matrix(g, [0, 9])

    def test_unknown_router_raises(self):
        g = line_graph()
        with pytest.raises(TopologyError):
            compute_rtt_matrix(g, [0, 77])

    def test_empty_placement_raises(self):
        with pytest.raises(TopologyError):
            compute_rtt_matrix(line_graph(), [])

    def test_triangle_inequality(self):
        """Shortest-path RTTs form a metric."""
        from repro.topology.transit_stub import generate_transit_stub
        from repro.config import TransitStubConfig

        g = generate_transit_stub(
            TransitStubConfig(
                transit_domains=2,
                transit_nodes_per_domain=2,
                stub_domains_per_transit_node=2,
                stub_nodes_per_domain=3,
            ),
            np.random.default_rng(2),
        )
        routers = list(g.routers())[:10]
        m = compute_rtt_matrix(g, routers)
        arr = m.as_array()
        n = arr.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert arr[i, j] <= arr[i, k] + arr[k, j] + 1e-9


class TestPairwiseRtt:
    def test_all_pairs(self):
        base = np.array(
            [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]
        )
        m = DistanceMatrix(base)
        assert sorted(pairwise_rtt(m, [0, 1, 2])) == [1.0, 2.0, 3.0]

    def test_single_node_no_pairs(self):
        m = DistanceMatrix(np.zeros((2, 2)))
        assert pairwise_rtt(m, [0]) == []

    def test_first_unknown_node_raises_the_rtt_error(self):
        m = DistanceMatrix(np.zeros((3, 3)))
        with pytest.raises(TopologyError) as expected:
            m.rtt(0, 7)
        with pytest.raises(TopologyError) as got:
            pairwise_rtt(m, [0, 7, -1, 2])
        assert str(got.value) == str(expected.value)
