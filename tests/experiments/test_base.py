"""Tests for shared experiment plumbing."""

from repro.experiments.base import (
    build_testbed,
    default_workload_config,
    landmark_config,
    run_simulation,
    series_means,
    sweep_payloads,
)
from repro.core.groups import singleton_groups


class TestLandmarkConfig:
    def test_defaults(self):
        cfg = landmark_config()
        assert cfg.num_landmarks == 25
        assert cfg.multiplier == 2

    def test_clamped_to_caches(self):
        cfg = landmark_config(25, num_caches=10)
        assert cfg.num_landmarks == 11

    def test_not_clamped_when_enough(self):
        cfg = landmark_config(10, num_caches=100)
        assert cfg.num_landmarks == 10


class TestBuildTestbed:
    def test_structure(self):
        tb = build_testbed(
            num_caches=8, seed=1, requests_per_cache=10, num_documents=30
        )
        assert tb.num_caches == 8
        assert tb.workload.num_requests == 80
        assert len(tb.workload.catalog) == 30

    def test_reproducible(self):
        a = build_testbed(num_caches=6, seed=2, requests_per_cache=5)
        b = build_testbed(num_caches=6, seed=2, requests_per_cache=5)
        assert a.workload.requests == b.workload.requests
        import numpy as np

        assert np.array_equal(
            a.network.distances.as_array(), b.network.distances.as_array()
        )

    def test_simulation_runs(self):
        tb = build_testbed(
            num_caches=6, seed=3, requests_per_cache=10, num_documents=30
        )
        result = run_simulation(
            tb, singleton_groups(tb.network.cache_nodes)
        )
        assert result.average_latency_ms() > 0


class TestDefaultWorkloadConfig:
    def test_validates(self):
        default_workload_config().validate()

    def test_paper_similarity_assumption(self):
        """Shared interest is high, per the paper's similarity assumption."""
        assert default_workload_config().shared_interest >= 0.5


class TestSweep:
    def test_payloads_in_x_repetition_series_order(self):
        calls = []

        def point(x, rep):
            calls.append((x, rep))
            return [(x, rep, "p"), (x, rep, "q")]

        payloads = sweep_payloads(("a", "b"), 2, point)
        assert calls == [("a", 0), ("a", 1), ("b", 0), ("b", 1)]
        assert payloads[:4] == [
            ("a", 0, "p"), ("a", 0, "q"), ("a", 1, "p"), ("a", 1, "q"),
        ]

    def test_means_per_series_and_metric(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        assert series_means(values, 2, 2) == [[2.0, 6.0], [3.0, 7.0]]
        units = [{"a": 1.0, "b": 10.0}, {"a": 3.0, "b": 30.0}]
        assert series_means(units, 2, 1, ("a", "b")) == [[2.0], [20.0]]

    def test_means_add_left_to_right_from_zero(self):
        # 1e16 + 1.0 rounds back to 1e16; compensated summation
        # (math.fsum, or sum() from Python 3.12) would keep the 1.0.
        assert series_means([1e16, 1.0, -1e16], 3, 1) == [[0.0]]
