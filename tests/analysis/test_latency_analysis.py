"""Tests for latency comparison helpers."""

import pytest

from repro.analysis import improvement_percent
from repro.core.groups import singleton_groups
from repro.errors import SchemeError
from repro.simulator import simulate


class TestImprovementPercent:
    def test_positive_improvement(self):
        assert improvement_percent(100.0, 73.0) == pytest.approx(27.0)

    def test_regression_negative(self):
        assert improvement_percent(100.0, 120.0) == pytest.approx(-20.0)

    def test_no_change_zero(self):
        assert improvement_percent(50.0, 50.0) == 0.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(SchemeError):
            improvement_percent(0.0, 10.0)


class TestLatencyBySubset:
    def test_named_subsets(self, small_network, small_workload):
        result = simulate(
            small_network,
            singleton_groups(small_network.cache_nodes),
            small_workload,
        )
        near = small_network.caches_nearest_origin(5)
        far = small_network.caches_farthest_origin(5)
        assert result.average_latency_ms(far) > result.average_latency_ms(near)
