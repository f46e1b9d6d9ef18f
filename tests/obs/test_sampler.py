"""Tests for repro.obs.sampler: windowed time-series sampling."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.obs import SERIES_FIELDS, MetricsSampler, TimeSeries


def feed(sampler, n, path="local_hit", latency=10.0):
    for _ in range(n):
        sampler.observe_request(path, latency, counted=True)


class TestMetricsSampler:
    def test_invalid_interval_rejected(self):
        with pytest.raises(SimulationError):
            MetricsSampler(interval_ms=0.0)

    def test_unknown_path_rejected(self):
        sampler = MetricsSampler(interval_ms=100.0)
        with pytest.raises(SimulationError):
            sampler.observe_request("teleport", 1.0, counted=True)

    def test_ticks_align_to_interval_multiples(self):
        sampler = MetricsSampler(interval_ms=100.0)
        # A tick is due once an event's time reaches it.
        assert sampler.next_tick_ms == 100.0
        assert not sampler.next_tick_ms <= 99.9
        sampler.flush(sampler.next_tick_ms)
        assert sampler.next_tick_ms == 200.0
        # An event at 250 ms first flushes the 200 ms tick, late; after
        # it, ticks stay on the k * interval grid.
        while sampler.next_tick_ms <= 250.0:
            sampler.flush(sampler.next_tick_ms)
        assert [s.time_ms for s in sampler.samples] == [100.0, 200.0]
        assert sampler.next_tick_ms == 300.0

    def test_window_counters_reset_per_flush(self):
        sampler = MetricsSampler(interval_ms=1_000.0)
        feed(sampler, 3, "local_hit")
        feed(sampler, 1, "origin_fetch")
        first = sampler.flush(1_000.0)
        assert first.requests == 4
        assert first.hit_rate == pytest.approx(0.75)
        assert first.request_rate_rps == pytest.approx(4.0)
        assert first.local_rate_rps == pytest.approx(3.0)
        second = sampler.flush(2_000.0)
        assert second.requests == 0
        assert second.hit_rate == 0.0
        assert second.mean_latency_ms == 0.0

    def test_window_latency_stats(self):
        sampler = MetricsSampler(interval_ms=1_000.0)
        for latency in (10.0, 20.0, 30.0, 40.0):
            sampler.observe_request("group_hit", latency, counted=True)
        sample = sampler.flush(1_000.0)
        assert sample.mean_latency_ms == pytest.approx(25.0, abs=2.0)
        assert 30.0 <= sample.p95_latency_ms <= 40.5

    def test_gauges_attached_to_sample(self):
        sampler = MetricsSampler(interval_ms=100.0)
        feed(sampler, 1)
        sample = sampler.flush(
            100.0, origin_utilisation=0.7, cache_occupancy=0.4
        )
        assert sample.origin_utilisation == 0.7
        assert sample.cache_occupancy == 0.4

    def test_finalize_flushes_trailing_partial_window(self):
        sampler = MetricsSampler(interval_ms=100.0)
        feed(sampler, 2)
        sampler.flush(100.0)
        feed(sampler, 5)
        sampler.finalize(130.0)
        assert sampler.num_samples == 2
        last = sampler.samples[-1]
        assert last.time_ms == 200.0  # next grid point after 130 ms
        assert last.requests == 5

    def test_finalize_is_idempotent_and_skips_empty_window(self):
        sampler = MetricsSampler(interval_ms=100.0)
        feed(sampler, 1)
        sampler.flush(100.0)
        sampler.finalize(100.0)
        sampler.finalize(100.0)
        assert sampler.num_samples == 1


class TestTimeSeries:
    def build(self):
        sampler = MetricsSampler(interval_ms=100.0)
        for tick in (100.0, 200.0, 300.0):
            feed(sampler, 2)
            sampler.flush(tick)
        return sampler.series()

    def test_columns_and_length(self):
        series = self.build()
        assert len(series) == 3
        assert list(series.time_ms) == [100.0, 200.0, 300.0]
        assert np.all(series.requests == 2)

    def test_as_matrix_shape(self):
        series = self.build()
        assert series.as_matrix().shape == (3, len(SERIES_FIELDS))

    def test_dict_round_trip(self):
        series = self.build()
        clone = TimeSeries.from_dict(series.to_dict())
        assert np.array_equal(clone.as_matrix(), series.as_matrix())

    def test_from_dict_missing_field_rejected(self):
        payload = self.build().to_dict()
        payload.pop("hit_rate")
        with pytest.raises(SimulationError):
            TimeSeries.from_dict(payload)
