"""Cross-feature engine tests: TTL x failures x cooperative placement.

The simulator's optional mechanisms must compose without breaking the
core invariants (conservation, capacity, directory exactness).
"""

import pytest

from repro.config import (
    CacheConfig,
    DocumentConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.core.groups import GroupingResult, groups_from_labels
from repro.core.schemes import SLScheme
from repro.config import LandmarkConfig
from repro.faults import FaultSchedule
from repro.simulator import simulate
from repro.topology import build_network
from repro.workload import generate_workload

import numpy as np


@pytest.fixture(scope="module")
def testbed():
    network = build_network(num_caches=20, seed=55)
    workload = generate_workload(
        network.cache_nodes,
        WorkloadConfig(
            documents=DocumentConfig(num_documents=80),
            requests_per_cache=60,
        ),
        seed=55,
    )
    grouping = SLScheme(
        landmark_config=LandmarkConfig(num_landmarks=5)
    ).form_groups(network, 4, seed=55)
    return network, workload, grouping


def failures_for(network, workload):
    horizon = workload.horizon_ms
    return FaultSchedule(
        crashes=(
            (horizon * 0.3, network.cache_nodes[0]),
            (horizon * 0.5, network.cache_nodes[5]),
        ),
        recoveries=((horizon * 0.6, network.cache_nodes[0]),),
    )


ALL_CONFIGS = [
    pytest.param(
        SimulationConfig(consistency_mode="ttl", ttl_ms=2_000.0),
        id="ttl",
    ),
    pytest.param(
        SimulationConfig(
            cache=CacheConfig(placement_rtt_threshold_ms=15.0)
        ),
        id="coop-placement",
    ),
    pytest.param(
        SimulationConfig(
            consistency_mode="ttl",
            ttl_ms=2_000.0,
            cache=CacheConfig(placement_rtt_threshold_ms=15.0),
            origin_capacity_rps=500.0,
        ),
        id="everything-on",
    ),
]


class TestModeCombinations:
    @pytest.mark.parametrize("config", ALL_CONFIGS)
    def test_invariants_hold_with_failures(self, testbed, config):
        network, workload, grouping = testbed
        result = simulate(
            network, grouping, workload, config,
            faults=failures_for(network, workload),
        )
        metrics = result.metrics
        assert metrics.conservation_holds()
        assert metrics.total_requests() + metrics.warmup_skipped == (
            workload.num_requests
        )
        rates = result.hit_rates()
        assert sum(rates.values()) == pytest.approx(1.0)
        assert result.average_latency_ms() > 0

    @pytest.mark.parametrize("config", ALL_CONFIGS)
    @pytest.mark.parametrize(
        "mode", ["beacon", "multicast", "directory"]
    )
    def test_all_protocol_modes(self, testbed, config, mode):
        network, workload, grouping = testbed
        result = simulate(
            network, grouping, workload, config,
            group_protocol_mode=mode,
        )
        assert result.metrics.conservation_holds()

    def test_random_groupings_with_everything_on(self, testbed):
        network, workload, _ = testbed
        rng = np.random.default_rng(3)
        config = ALL_CONFIGS[2].values[0]
        for k in (1, 5, 20):
            labels = rng.integers(k, size=20)
            grouping = GroupingResult(
                scheme="random",
                groups=groups_from_labels(network.cache_nodes, labels),
            )
            result = simulate(
                network, grouping, workload, config,
                faults=failures_for(network, workload),
            )
            assert result.metrics.conservation_holds()

    def test_deterministic_under_all_features(self, testbed):
        network, workload, grouping = testbed
        config = ALL_CONFIGS[2].values[0]
        failures = failures_for(network, workload)
        a = simulate(network, grouping, workload, config, faults=failures)
        b = simulate(network, grouping, workload, config, faults=failures)
        assert a.average_latency_ms() == b.average_latency_ms()
        assert a.hit_rates() == b.hit_rates()
