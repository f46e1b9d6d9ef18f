"""Property-based tests for topology generation and distances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TransitStubConfig
from repro.topology.distance import compute_rtt_matrix
from repro.topology.transit_stub import generate_transit_stub
from repro.topology.waxman import waxman_graph


@st.composite
def topology_configs(draw):
    return TransitStubConfig(
        transit_domains=draw(st.integers(1, 3)),
        transit_nodes_per_domain=draw(st.integers(1, 3)),
        stub_domains_per_transit_node=draw(st.integers(1, 2)),
        stub_nodes_per_domain=draw(st.integers(1, 4)),
    )


class TestTopologyProperties:
    @settings(max_examples=25, deadline=None)
    @given(topology_configs(), st.integers(0, 2**31 - 1))
    def test_generated_topologies_connected(self, config, seed):
        graph = generate_transit_stub(config, np.random.default_rng(seed))
        assert graph.is_connected()
        assert graph.router_count == config.total_routers

    @settings(max_examples=20, deadline=None)
    @given(topology_configs(), st.integers(0, 2**31 - 1))
    def test_distance_matrix_is_metric(self, config, seed):
        rng = np.random.default_rng(seed)
        graph = generate_transit_stub(config, rng)
        routers = list(graph.routers())
        placed = routers[:: max(1, len(routers) // 8)][:8]
        matrix = compute_rtt_matrix(graph, placed)
        arr = matrix.as_array()
        # Symmetry, zero diagonal, non-negativity.
        assert np.allclose(arr, arr.T)
        assert np.allclose(np.diag(arr), 0.0)
        assert (arr >= 0).all()
        # Triangle inequality (shortest-path metric).
        n = arr.shape[0]
        for k in range(n):
            via_k = arr[:, k][:, None] + arr[k, :][None, :]
            assert (arr <= via_k + 1e-9).all()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 2**31 - 1))
    def test_waxman_always_connected(self, n, seed):
        _pos, edges = waxman_graph(n, np.random.default_rng(seed))
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j, _d in edges:
            parent[find(i)] = find(j)
        assert len({find(i) for i in range(n)}) == 1
