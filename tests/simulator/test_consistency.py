"""Tests for consistency maintenance: invalidation vs TTL vs disabled."""

import pytest

from repro.config import (
    CacheConfig,
    DocumentConfig,
    SimulationConfig,
)
from repro.core.groups import CacheGroup, GroupingResult
from repro.errors import ConfigurationError
from repro.simulator import SimulationEngine
from repro.topology import network_from_matrix
from repro.workload import Workload, build_catalog
from repro.workload.trace import RequestRecord, UpdateRecord


@pytest.fixture
def tiny_network():
    return network_from_matrix(
        [
            [0.0, 10.0, 20.0],
            [10.0, 0.0, 4.0],
            [20.0, 4.0, 0.0],
        ]
    )


@pytest.fixture
def catalog():
    return build_catalog(
        DocumentConfig(
            num_documents=4, mean_size_bytes=1000.0, size_sigma=0.0,
            dynamic_fraction=1.0,
        ),
        seed=1,
    )


def sim_config(**overrides):
    defaults = dict(
        cache=CacheConfig(capacity_fraction=0.5),
        warmup_fraction=0.0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def pair_grouping():
    return GroupingResult(scheme="manual", groups=(CacheGroup(0, (1, 2)),))


def run(network, catalog, requests, updates, config):
    workload = Workload(
        catalog=catalog, requests=tuple(requests), updates=tuple(updates)
    )
    engine = SimulationEngine(network, pair_grouping(), workload, config)
    return engine, engine.run()


class TestConfigValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(consistency_mode="gossip").validate()

    def test_bad_ttl_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(ttl_ms=0.0).validate()


class TestInvalidateMode:
    def test_never_serves_stale(self, tiny_network, catalog):
        requests = [RequestRecord(float(i * 10), 1, 0) for i in range(10)]
        updates = [UpdateRecord(25.0, 0), UpdateRecord(55.0, 0)]
        _engine, metrics = run(
            tiny_network, catalog, requests, updates,
            sim_config(consistency_mode="invalidate"),
        )
        assert metrics.stale_serve_fraction() == 0.0
        assert metrics.invalidation_messages == 2


class TestTTLMode:
    def test_copy_expires_after_ttl(self, tiny_network, catalog):
        requests = [
            RequestRecord(0.0, 1, 0),
            RequestRecord(100.0, 1, 0),  # within TTL: local hit
            RequestRecord(9_000.0, 1, 0),  # past TTL: re-fetch
        ]
        engine, metrics = run(
            tiny_network, catalog, requests, [],
            sim_config(consistency_mode="ttl", ttl_ms=5_000.0),
        )
        stats = metrics.cache_stats(1)
        assert stats.local_hits == 1
        assert stats.origin_fetches == 2

    def test_no_invalidation_fanout(self, tiny_network, catalog):
        requests = [RequestRecord(0.0, 1, 0), RequestRecord(10.0, 1, 0)]
        updates = [UpdateRecord(5.0, 0)]
        _engine, metrics = run(
            tiny_network, catalog, requests, updates,
            sim_config(consistency_mode="ttl"),
        )
        assert metrics.invalidation_messages == 0

    def test_stale_serves_counted(self, tiny_network, catalog):
        requests = [RequestRecord(0.0, 1, 0), RequestRecord(10.0, 1, 0)]
        updates = [UpdateRecord(5.0, 0)]
        _engine, metrics = run(
            tiny_network, catalog, requests, updates,
            sim_config(consistency_mode="ttl", ttl_ms=60_000.0),
        )
        # The second request hits a copy predating the update.
        assert metrics.cache_stats(1).stale_serves == 1
        assert metrics.stale_serve_fraction() == 0.5

    def test_stale_group_fetch_counted(self, tiny_network, catalog):
        """Fetching a stale copy from a peer is a stale serve too."""
        requests = [
            RequestRecord(0.0, 1, 0),    # cache 1 stores v0
            RequestRecord(10.0, 2, 0),   # cache 2 fetches v0 from cache 1
        ]
        updates = [UpdateRecord(5.0, 0)]
        _engine, metrics = run(
            tiny_network, catalog, requests, updates,
            sim_config(consistency_mode="ttl", ttl_ms=60_000.0),
        )
        assert metrics.cache_stats(2).group_hits == 1
        assert metrics.cache_stats(2).stale_serves == 1

    def test_expired_holder_degrades_to_origin(self, tiny_network, catalog):
        """A directory entry whose copy has TTL-expired cannot serve."""
        requests = [
            RequestRecord(0.0, 1, 0),
            RequestRecord(9_000.0, 2, 0),  # holder's copy expired
        ]
        _engine, metrics = run(
            tiny_network, catalog, requests, [],
            sim_config(consistency_mode="ttl", ttl_ms=5_000.0),
        )
        assert metrics.cache_stats(2).group_hits == 0
        assert metrics.cache_stats(2).origin_fetches == 1

    def test_refetch_after_expiry_is_fresh(self, tiny_network, catalog):
        requests = [
            RequestRecord(0.0, 1, 0),
            RequestRecord(9_000.0, 1, 0),   # expired -> refetch v1
            RequestRecord(9_100.0, 1, 0),   # fresh local hit
        ]
        updates = [UpdateRecord(5.0, 0)]
        _engine, metrics = run(
            tiny_network, catalog, requests, updates,
            sim_config(consistency_mode="ttl", ttl_ms=5_000.0),
        )
        assert metrics.cache_stats(1).stale_serves == 0


class TestDisabled:
    def test_serves_stale_forever(self, tiny_network, catalog):
        requests = [RequestRecord(0.0, 1, 0), RequestRecord(10.0, 1, 0)]
        updates = [UpdateRecord(5.0, 0)]
        _engine, metrics = run(
            tiny_network, catalog, requests, updates,
            sim_config(consistency_mode="none"),
        )
        assert metrics.cache_stats(1).local_hits == 1
        assert metrics.cache_stats(1).stale_serves == 1
        assert metrics.invalidation_messages == 0
