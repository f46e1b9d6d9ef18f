"""Tests for the flash-crowd workload generator."""

import numpy as np
import pytest

from repro.config import DocumentConfig, WorkloadConfig
from repro.errors import WorkloadError
from repro.workload.flash_crowd import (
    FlashCrowdConfig,
    generate_flash_crowd_workload,
)


def burst_window(crowd, duration_ms):
    """The ``(start_ms, end_ms)`` of the ±2σ burst window."""
    center = crowd.center_fraction * duration_ms
    sigma = crowd.width_fraction * duration_ms
    return max(0.0, center - 2 * sigma), min(duration_ms, center + 2 * sigma)


def small_config():
    return WorkloadConfig(
        documents=DocumentConfig(num_documents=100),
        requests_per_cache=400,
    )


class TestFlashCrowdConfig:
    def test_default_validates(self):
        FlashCrowdConfig().validate()

    def test_bad_values_rejected(self):
        with pytest.raises(WorkloadError):
            FlashCrowdConfig(peak_factor=0.5).validate()
        with pytest.raises(WorkloadError):
            FlashCrowdConfig(center_fraction=1.0).validate()
        with pytest.raises(WorkloadError):
            FlashCrowdConfig(width_fraction=0.6).validate()
        with pytest.raises(WorkloadError):
            FlashCrowdConfig(burst_zipf_alpha=0).validate()


class TestGenerate:
    def test_volume_and_bounds(self):
        w = generate_flash_crowd_workload(
            [1, 2], small_config(), duration_ms=30_000.0, seed=1
        )
        assert w.num_requests == 800
        assert all(0 <= r.timestamp_ms <= 30_000.0 for r in w.requests)
        times = [r.timestamp_ms for r in w.requests]
        assert times == sorted(times)

    def test_burst_concentrates_traffic(self):
        duration = 60_000.0
        crowd = FlashCrowdConfig(peak_factor=8.0, width_fraction=0.05)
        w = generate_flash_crowd_workload(
            [1], small_config(), crowd, duration_ms=duration, seed=2
        )
        start, end = burst_window(crowd, duration)
        window_share = np.mean(
            [start <= r.timestamp_ms <= end for r in w.requests]
        )
        window_fraction = (end - start) / duration
        # The burst window carries far more than its share of time.
        assert window_share > 2.5 * window_fraction

    def test_peak_factor_one_is_uniform(self):
        duration = 60_000.0
        crowd = FlashCrowdConfig(peak_factor=1.0)
        w = generate_flash_crowd_workload(
            [1], small_config(), crowd, duration_ms=duration, seed=3
        )
        # Roughly uniform: first half holds ~half the requests.
        first_half = np.mean(
            [r.timestamp_ms < duration / 2 for r in w.requests]
        )
        assert first_half == pytest.approx(0.5, abs=0.06)

    def test_burst_narrows_popularity(self):
        duration = 60_000.0
        crowd = FlashCrowdConfig(
            peak_factor=8.0, burst_zipf_alpha=1.6, width_fraction=0.06
        )
        w = generate_flash_crowd_workload(
            [1, 2, 3],
            small_config(),
            crowd,
            duration_ms=duration,
            seed=4,
        )
        start, end = burst_window(crowd, duration)
        in_burst = [r.doc_id for r in w.requests
                    if start <= r.timestamp_ms <= end]
        outside = [r.doc_id for r in w.requests
                   if not start <= r.timestamp_ms <= end]

        def top_share(docs):
            values, counts = np.unique(docs, return_counts=True)
            return counts.max() / len(docs)

        assert top_share(in_burst) > top_share(outside)

    def test_updates_within_duration(self):
        w = generate_flash_crowd_workload(
            [1], small_config(), duration_ms=20_000.0, seed=5
        )
        assert all(u.timestamp_ms <= 20_000.0 for u in w.updates)

    def test_reproducible(self):
        a = generate_flash_crowd_workload(
            [1, 2], small_config(), duration_ms=10_000.0, seed=6
        )
        b = generate_flash_crowd_workload(
            [1, 2], small_config(), duration_ms=10_000.0, seed=6
        )
        assert a.requests == b.requests

    def test_bad_args_rejected(self):
        with pytest.raises(WorkloadError):
            generate_flash_crowd_workload([], small_config())
        with pytest.raises(WorkloadError):
            generate_flash_crowd_workload(
                [1], small_config(), duration_ms=0.0
            )

    def test_simulates_cleanly(self, small_network):
        from repro.core.groups import single_group
        from repro.simulator import simulate

        w = generate_flash_crowd_workload(
            small_network.cache_nodes,
            WorkloadConfig(
                documents=DocumentConfig(num_documents=60),
                requests_per_cache=40,
            ),
            duration_ms=20_000.0,
            seed=7,
        )
        result = simulate(
            small_network, single_group(small_network.cache_nodes), w
        )
        assert result.metrics.conservation_holds()
