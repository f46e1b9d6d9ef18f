"""Tests for repro.topology.transit_stub: the GT-ITM substitute."""

import numpy as np

from repro.config import TransitStubConfig
from repro.topology.graph import RouterTier
from repro.topology.transit_stub import generate_transit_stub


def small_config(**overrides):
    defaults = dict(
        transit_domains=2,
        transit_nodes_per_domain=2,
        stub_domains_per_transit_node=2,
        stub_nodes_per_domain=3,
    )
    defaults.update(overrides)
    return TransitStubConfig(**defaults)


class TestStructure:
    def test_router_count_matches_config(self, rng):
        cfg = small_config()
        graph = generate_transit_stub(cfg, rng)
        assert graph.router_count == cfg.total_routers

    def test_tier_counts(self, rng):
        cfg = small_config()
        graph = generate_transit_stub(cfg, rng)
        transit = graph.routers_in_tier(RouterTier.TRANSIT)
        stub = graph.routers_in_tier(RouterTier.STUB)
        assert len(transit) == 4
        assert len(stub) == 4 * 2 * 3

    def test_always_connected(self):
        for seed in range(8):
            graph = generate_transit_stub(
                small_config(), np.random.default_rng(seed)
            )
            assert graph.is_connected()

    def test_domain_labels(self, rng):
        graph = generate_transit_stub(small_config(), rng)
        domains = graph.domains()
        transit_domains = [d for d in domains if d.startswith("T")]
        stub_domains = [d for d in domains if d.startswith("S")]
        assert len(transit_domains) == 2
        assert len(stub_domains) == 8

    def test_single_transit_domain(self, rng):
        cfg = small_config(transit_domains=1)
        graph = generate_transit_stub(cfg, rng)
        assert graph.is_connected()

    def test_no_stub_domains(self, rng):
        cfg = small_config(stub_domains_per_transit_node=0)
        graph = generate_transit_stub(cfg, rng)
        assert graph.router_count == 4
        assert graph.is_connected()

    def test_reproducible(self):
        a = generate_transit_stub(small_config(), np.random.default_rng(9))
        b = generate_transit_stub(small_config(), np.random.default_rng(9))
        assert a.router_count == b.router_count
        assert a.link_count == b.link_count
        for r in a.routers():
            assert a.domain_of(r) == b.domain_of(r)


class TestLatencyTiers:
    def test_intra_stub_links_fast(self, rng):
        cfg = small_config()
        graph = generate_transit_stub(cfg, rng)
        nx_graph = graph.as_networkx()
        low, high = cfg.intra_stub_latency_ms
        for a, b, data in nx_graph.edges(data=True):
            same_stub = (
                graph.tier_of(a) is RouterTier.STUB
                and graph.tier_of(b) is RouterTier.STUB
                and graph.domain_of(a) == graph.domain_of(b)
            )
            if same_stub:
                assert low <= data["latency_ms"] <= high

    def test_transit_transit_links_slow(self, rng):
        cfg = small_config()
        graph = generate_transit_stub(cfg, rng)
        nx_graph = graph.as_networkx()
        inter_low = cfg.transit_transit_latency_ms[0]
        crossings = [
            data["latency_ms"]
            for a, b, data in nx_graph.edges(data=True)
            if graph.tier_of(a) is RouterTier.TRANSIT
            and graph.tier_of(b) is RouterTier.TRANSIT
            and graph.domain_of(a) != graph.domain_of(b)
        ]
        assert crossings, "expected at least one inter-domain backbone link"
        assert all(latency >= inter_low for latency in crossings)

    def test_every_stub_domain_attached_to_transit(self, rng):
        graph = generate_transit_stub(small_config(), rng)
        nx_graph = graph.as_networkx()
        for domain, members in graph.domains().items():
            if not domain.startswith("S"):
                continue
            attached = any(
                graph.tier_of(neighbor) is RouterTier.TRANSIT
                for member in members
                for neighbor in nx_graph.neighbors(member)
            )
            assert attached, f"stub domain {domain} has no transit uplink"
