"""Tests for cooperative placement (near-peer duplicate avoidance)."""

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
from repro.workload.trace import RequestRecord


@pytest.fixture
def network():
    """Ec0 and Ec1 are 4 ms apart; Ec2 is 100 ms from both."""
    return network_from_matrix(
        [
            [0.0, 10.0, 12.0, 80.0],
            [10.0, 0.0, 4.0, 100.0],
            [12.0, 4.0, 0.0, 100.0],
            [80.0, 100.0, 100.0, 0.0],
        ]
    )


@pytest.fixture
def catalog():
    return build_catalog(
        DocumentConfig(
            num_documents=4, mean_size_bytes=1000.0, size_sigma=0.0,
            dynamic_fraction=0.0,
        ),
        seed=1,
    )


def config(cooperative, threshold=10.0):
    return SimulationConfig(
        cache=CacheConfig(
            capacity_fraction=0.5,
            placement_rtt_threshold_ms=threshold if cooperative else None,
        ),
        warmup_fraction=0.0,
    )


def one_group():
    return GroupingResult(
        scheme="manual", groups=(CacheGroup(0, (1, 2, 3)),)
    )


def run(network, catalog, requests, cfg):
    workload = Workload(
        catalog=catalog, requests=tuple(requests), updates=()
    )
    engine = SimulationEngine(network, one_group(), workload, cfg)
    return engine, engine.run()


class TestCooperativePlacement:
    def test_near_peer_copy_not_duplicated(self, network, catalog):
        requests = [
            RequestRecord(0.0, 1, 0),   # Ec0 stores doc 0
            RequestRecord(10.0, 2, 0),  # Ec1 group-hits Ec0 (4ms, near)
        ]
        engine, metrics = run(network, catalog, requests, config(True))
        assert metrics.cache_stats(2).group_hits == 1
        assert not engine.cache(2).holds(0)
        assert metrics.cache_stats(2).placement_skips == 1

    def test_far_peer_copy_is_duplicated(self, network, catalog):
        requests = [
            RequestRecord(0.0, 1, 0),
            RequestRecord(10.0, 3, 0),  # Ec2 group-hits Ec0 (100ms, far)
        ]
        engine, metrics = run(network, catalog, requests, config(True))
        assert metrics.cache_stats(3).group_hits == 1
        assert engine.cache(3).holds(0)
        assert metrics.cache_stats(3).placement_skips == 0

    def test_disabled_always_duplicates(self, network, catalog):
        requests = [
            RequestRecord(0.0, 1, 0),
            RequestRecord(10.0, 2, 0),
        ]
        engine, metrics = run(network, catalog, requests, config(False))
        assert engine.cache(2).holds(0)
        assert metrics.cache_stats(2).placement_skips == 0

    def test_skipped_copy_is_refetched_from_peer(self, network, catalog):
        """The skipping cache keeps group-hitting its near peer."""
        requests = [
            RequestRecord(0.0, 1, 0),
            RequestRecord(10.0, 2, 0),
            RequestRecord(20.0, 2, 0),
        ]
        _engine, metrics = run(network, catalog, requests, config(True))
        assert metrics.cache_stats(2).group_hits == 2
        assert metrics.cache_stats(2).local_hits == 0

    def test_threshold_zero_never_skips(self, network, catalog):
        requests = [
            RequestRecord(0.0, 1, 0),
            RequestRecord(10.0, 2, 0),
        ]
        engine, metrics = run(
            network, catalog, requests, config(True, threshold=0.0)
        )
        assert engine.cache(2).holds(0)

    def test_saves_storage_for_other_documents(self, network, catalog):
        """The freed space serves extra documents locally."""
        # Capacity = 2 documents.  Without cooperative placement,
        # cache 2 stores doc 0 (peer-duplicated) + two others with
        # churn; with it, doc 0 stays remote and docs 1,2 both fit.
        requests = [
            RequestRecord(0.0, 1, 0),
            RequestRecord(10.0, 2, 0),
            RequestRecord(20.0, 2, 1),
            RequestRecord(30.0, 2, 2),
            RequestRecord(40.0, 2, 1),
            RequestRecord(50.0, 2, 2),
        ]
        engine, metrics = run(network, catalog, requests, config(True))
        assert engine.cache(2).holds(1)
        assert engine.cache(2).holds(2)
        assert metrics.cache_stats(2).local_hits == 2

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(placement_rtt_threshold_ms=-1.0).validate()
