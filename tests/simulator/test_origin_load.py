"""Tests for the origin congestion model."""

import pytest

from repro.config import (
    CacheConfig,
    DocumentConfig,
    SimulationConfig,
)
from repro.core.groups import CacheGroup, GroupingResult
from repro.errors import ConfigurationError, SimulationError
from repro.simulator import SimulationEngine
from repro.simulator.origin_load import MAX_UTILISATION, OriginLoadTracker
from repro.topology import network_from_matrix
from repro.workload import Workload, build_catalog
from repro.workload.trace import RequestRecord


class TestOriginLoadTracker:
    def test_idle_utilisation_zero(self):
        tracker = OriginLoadTracker(capacity_rps=100, window_ms=1000)
        assert tracker.utilisation(0.0) == 0.0
        assert tracker.inflation_factor(0.0) == 1.0

    def test_utilisation_matches_rate(self):
        # 50 arrivals in a 1000ms window at 100 rps capacity -> rho=0.5.
        tracker = OriginLoadTracker(capacity_rps=100, window_ms=1000)
        for i in range(50):
            tracker.record_arrival(float(i * 20))
        assert tracker.utilisation(999.0) == pytest.approx(0.5)
        assert tracker.inflation_factor(999.0) == pytest.approx(2.0)

    def test_clamped_at_saturation(self):
        tracker = OriginLoadTracker(capacity_rps=10, window_ms=1000)
        for i in range(500):
            tracker.record_arrival(float(i))
        assert tracker.utilisation(500.0) == MAX_UTILISATION
        assert tracker.inflation_factor(500.0) == pytest.approx(
            1.0 / (1.0 - MAX_UTILISATION)
        )

    def test_window_eviction(self):
        tracker = OriginLoadTracker(capacity_rps=100, window_ms=1000)
        for i in range(50):
            tracker.record_arrival(float(i))
        # Long quiet period: the window empties.
        assert tracker.utilisation(10_000.0) == 0.0

    def test_peak_recorded(self):
        tracker = OriginLoadTracker(capacity_rps=100, window_ms=1000)
        for i in range(50):
            tracker.record_arrival(float(i * 20))
        tracker.utilisation(999.0)
        tracker.utilisation(50_000.0)
        assert tracker.peak_utilisation == pytest.approx(0.5)

    def test_out_of_order_rejected(self):
        tracker = OriginLoadTracker(capacity_rps=100, window_ms=1000)
        tracker.record_arrival(10.0)
        with pytest.raises(SimulationError):
            tracker.record_arrival(5.0)

    def test_bad_params_rejected(self):
        with pytest.raises(SimulationError):
            OriginLoadTracker(capacity_rps=0, window_ms=1000)
        with pytest.raises(SimulationError):
            OriginLoadTracker(capacity_rps=10, window_ms=0)


class TestEngineWithQueueing:
    @pytest.fixture
    def network(self):
        return network_from_matrix(
            [[0.0, 10.0, 12.0], [10.0, 0.0, 4.0], [12.0, 4.0, 0.0]]
        )

    @pytest.fixture
    def catalog(self):
        return build_catalog(
            DocumentConfig(
                num_documents=200, mean_size_bytes=1000.0, size_sigma=0.0,
                dynamic_fraction=0.0,
            ),
            seed=1,
        )

    def config(self, queueing, capacity_rps=50.0):
        return SimulationConfig(
            cache=CacheConfig(capacity_fraction=0.02),  # tiny: mostly misses
            origin_processing_ms=40.0,
            origin_capacity_rps=capacity_rps if queueing else None,
            warmup_fraction=0.0,
        )

    def _run(self, network, catalog, queueing, capacity_rps=50.0):
        # A hot burst: 300 distinct docs in 3 seconds -> all misses.
        requests = [
            RequestRecord(float(i * 10), 1 + (i % 2), i % 200)
            for i in range(300)
        ]
        workload = Workload(
            catalog=catalog, requests=tuple(requests), updates=()
        )
        grouping = GroupingResult(
            scheme="manual", groups=(CacheGroup(0, (1, 2)),)
        )
        engine = SimulationEngine(
            network, grouping, workload,
            self.config(queueing, capacity_rps),
        )
        metrics = engine.run()
        return engine, metrics

    def test_congestion_raises_latency(self, network, catalog):
        _e1, flat = self._run(network, catalog, queueing=False)
        _e2, congested = self._run(network, catalog, queueing=True)
        assert (
            congested.average_latency_ms() > flat.average_latency_ms()
        )

    def test_tracker_active_and_loaded(self, network, catalog):
        engine, _metrics = self._run(network, catalog, queueing=True)
        assert engine.origin_load is not None
        assert engine.origin_load.peak_utilisation > 0.5

    def test_tracker_absent_when_disabled(self, network, catalog):
        engine, _metrics = self._run(network, catalog, queueing=False)
        assert engine.origin_load is None

    def test_high_capacity_negligible_effect(self, network, catalog):
        _e1, flat = self._run(network, catalog, queueing=False)
        _e2, fast = self._run(
            network, catalog, queueing=True, capacity_rps=100_000.0
        )
        assert fast.average_latency_ms() == pytest.approx(
            flat.average_latency_ms(), rel=0.02
        )

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(origin_capacity_rps=0).validate()
        with pytest.raises(ConfigurationError):
            SimulationConfig(origin_load_window_ms=0).validate()
