"""Property-based tests for topology generation and distances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TransitStubConfig
from repro.topology.distance import compute_rtt_matrix
from repro.topology.graph import NetworkGraph, RouterTier
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


@st.composite
def link_lists(draw):
    """Router ids in a shuffled insertion order, plus links with repeats."""
    routers = draw(st.permutations(range(draw(st.integers(1, 12)))))
    pairs = st.tuples(
        st.sampled_from(routers), st.sampled_from(routers)
    ).filter(lambda pair: pair[0] != pair[1])
    links = draw(st.lists(
        st.tuples(pairs, st.floats(0.5, 100.0)), max_size=40
    ))
    return routers, [(a, b, latency) for (a, b), latency in links]


def build_graph(routers, links):
    graph = NetworkGraph()
    for router in routers:
        graph.add_router(router, RouterTier.STUB, "S0")
    for a, b, latency in links:
        graph.add_link(a, b, latency)
    return graph


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

    @settings(max_examples=50, deadline=None)
    @given(link_lists())
    def test_links_yield_each_link_once(self, drawn):
        routers, links = drawn
        graph = build_graph(routers, links)
        expected = {}
        for a, b, latency in links:
            key = frozenset((a, b))
            expected[key] = min(latency, expected.get(key, latency))
        yielded = list(graph.links())
        assert len(yielded) == graph.link_count == len(expected)
        assert {frozenset((a, b)): w for a, b, w in yielded} == expected
        # Each link comes from the endpoint inserted first.
        position = {router: i for i, router in enumerate(routers)}
        assert all(position[a] < position[b] for a, b, _w in yielded)
        index, matrix, index_of = graph.to_sparse_adjacency()
        assert list(index) == list(routers)
        dense = np.zeros((len(routers), len(routers)))
        for a, b, latency in yielded:
            dense[index_of[a], index_of[b]] = latency
            dense[index_of[b], index_of[a]] = latency
        assert (matrix.toarray() == dense).all()

    @settings(max_examples=50, deadline=None)
    @given(link_lists())
    def test_is_connected_matches_union_find(self, drawn):
        routers, links = drawn
        parent = {router: router for router in routers}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b, _latency in links:
            parent[find(a)] = find(b)
        components = {find(router) for router in routers}
        assert build_graph(routers, links).is_connected() == (
            len(components) == 1
        )
