"""Failure injection tests: transient cache crashes and recovery."""

import pytest

from repro.config import CacheConfig, DocumentConfig, SimulationConfig
from repro.core.groups import CacheGroup, GroupingResult
from repro.errors import SimulationError
from repro.faults import FaultSchedule
from repro.simulator import SimulationEngine, simulate
from repro.topology import network_from_matrix
from repro.workload import Workload, build_catalog
from repro.workload.trace import RequestRecord


@pytest.fixture
def network():
    return network_from_matrix(
        [
            [0.0, 10.0, 20.0, 30.0],
            [10.0, 0.0, 4.0, 25.0],
            [20.0, 4.0, 0.0, 25.0],
            [30.0, 25.0, 25.0, 0.0],
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


def config():
    return SimulationConfig(
        cache=CacheConfig(capacity_fraction=0.5), warmup_fraction=0.0
    )


def one_group():
    return GroupingResult(
        scheme="manual", groups=(CacheGroup(0, (1, 2, 3)),)
    )


def engine_for(network, catalog, requests, failures):
    workload = Workload(
        catalog=catalog, requests=tuple(requests), updates=()
    )
    return SimulationEngine(
        network, one_group(), workload, config(), faults=failures
    )


class TestFailure:
    def test_failed_cache_serves_from_origin(self, network, catalog):
        requests = [
            RequestRecord(0.0, 1, 0),
            RequestRecord(20.0, 1, 0),  # while down
        ]
        failures = FaultSchedule(crashes=((10.0, 1),))
        engine = engine_for(network, catalog, requests, failures)
        metrics = engine.run()
        stats = metrics.cache_stats(1)
        assert stats.requests_while_down == 1
        assert stats.origin_fetches == 2  # initial + while-down
        assert stats.local_hits == 0

    def test_crash_loses_contents(self, network, catalog):
        requests = [RequestRecord(0.0, 1, 0)]
        failures = FaultSchedule(crashes=((10.0, 1),))
        engine = engine_for(network, catalog, requests, failures)
        engine.run()
        assert engine.cache(1).document_count == 0
        assert engine.cache(1).used_bytes == 0

    def test_crash_cleans_directory(self, network, catalog):
        requests = [
            RequestRecord(0.0, 1, 0),    # cache 1 stores doc 0
            RequestRecord(20.0, 3, 0),   # cache 3 must go to origin
        ]
        failures = FaultSchedule(crashes=((10.0, 1),))
        engine = engine_for(network, catalog, requests, failures)
        metrics = engine.run()
        assert metrics.cache_stats(3).group_hits == 0
        assert metrics.cache_stats(3).origin_fetches == 1
        # The crashed cache left the directory (cache 3's own fetched
        # copy is the only holder now).
        assert engine.protocol.all_holders(0) == [3]

    def test_recovery_restores_service(self, network, catalog):
        requests = [
            RequestRecord(30.0, 1, 0),   # after recovery: normal fetch
            RequestRecord(40.0, 1, 0),   # local hit again
        ]
        failures = FaultSchedule(
            crashes=((10.0, 1),), recoveries=((20.0, 1),)
        )
        engine = engine_for(network, catalog, requests, failures)
        metrics = engine.run()
        stats = metrics.cache_stats(1)
        assert stats.requests_while_down == 0
        assert stats.local_hits == 1

    def test_down_peer_not_selected_as_holder(self, network, catalog):
        requests = [
            RequestRecord(0.0, 2, 0),    # cache 2 stores doc 0
            RequestRecord(20.0, 1, 0),   # cache 2 down: no group hit
        ]
        failures = FaultSchedule(crashes=((10.0, 2),))
        engine = engine_for(network, catalog, requests, failures)
        metrics = engine.run()
        assert metrics.cache_stats(1).group_hits == 0

    def test_double_fail_rejected(self, network, catalog):
        requests = [RequestRecord(0.0, 1, 0)]
        failures = FaultSchedule(crashes=((10.0, 1), (20.0, 1)))
        engine = engine_for(network, catalog, requests, failures)
        with pytest.raises(SimulationError):
            engine.run()

    def test_recover_without_fail_rejected(self, network, catalog):
        requests = [RequestRecord(0.0, 1, 0)]
        failures = FaultSchedule(recoveries=((10.0, 1),))
        engine = engine_for(network, catalog, requests, failures)
        with pytest.raises(SimulationError):
            engine.run()

    def test_nan_failure_time_rejected(self, network, catalog):
        requests = [RequestRecord(0.0, 1, 0)]
        with pytest.raises(SimulationError, match="got nan"):
            engine_for(
                network, catalog, requests,
                FaultSchedule(crashes=((float("nan"), 1),)),
            )

    def test_unknown_cache_rejected(self, network, catalog):
        requests = [RequestRecord(0.0, 1, 0)]
        with pytest.raises(SimulationError):
            engine_for(
                network, catalog, requests,
                FaultSchedule(crashes=((5.0, 99),)),
            )

    def test_simulate_accepts_failures(self, network, catalog):
        workload = Workload(
            catalog=catalog,
            requests=(RequestRecord(0.0, 1, 0), RequestRecord(20.0, 1, 0)),
            updates=(),
        )
        result = simulate(
            network, one_group(), workload, config(),
            faults=FaultSchedule(crashes=((10.0, 1),)),
        )
        assert result.metrics.cache_stats(1).requests_while_down == 1

    def test_conservation_under_failures(self, network, catalog):
        requests = [
            RequestRecord(float(i * 5), 1 + (i % 3), i % 4)
            for i in range(30)
        ]
        failures = FaultSchedule(
            crashes=((40.0, 2), (100.0, 3)), recoveries=((90.0, 2),)
        )
        engine = engine_for(network, catalog, requests, failures)
        metrics = engine.run()
        assert metrics.conservation_holds()
        assert metrics.total_requests() == 30

    def test_conservation_with_warmup_and_failures(self, network, catalog):
        """Regression: run() must leave every served request accounted
        for even when warm-up exclusion and mid-run crashes overlap."""
        requests = [
            RequestRecord(float(i * 5), 1 + (i % 3), i % 4)
            for i in range(60)
        ]
        failures = FaultSchedule(
            # one crash during warm-up, one after it
            crashes=((30.0, 2), (150.0, 1)),
            recoveries=((80.0, 2), (220.0, 1)),
        )
        workload = Workload(
            catalog=catalog, requests=tuple(requests), updates=()
        )
        config_obj = SimulationConfig(
            cache=CacheConfig(capacity_fraction=0.5), warmup_fraction=0.2
        )
        engine = SimulationEngine(
            network, one_group(), workload, config_obj, faults=failures
        )
        metrics = engine.run()  # run() itself asserts conservation
        assert metrics.conservation_holds()
        # warm-up requests are excluded from the counted totals
        assert metrics.total_requests() == 48
        shares = metrics.hit_rates()
        assert sum(shares.values()) == pytest.approx(1.0)
