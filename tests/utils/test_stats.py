"""Tests for repro.utils.stats: online and batch statistics."""

import numpy as np
import pytest

from repro.utils.stats import (
    FixedBinHistogram,
    OnlineStats,
    percentile,
    summarize,
)


class TestOnlineStats:
    def test_mean_and_variance_match_numpy(self):
        data = [1.5, 2.0, -3.0, 7.25, 0.0, 4.5]
        s = OnlineStats()
        s.add_many(data)
        assert s.mean == pytest.approx(np.mean(data))
        assert s.variance == pytest.approx(np.var(data, ddof=1))
        assert s.stddev == pytest.approx(np.std(data, ddof=1))

    def test_min_max(self):
        s = OnlineStats()
        s.add_many([3.0, -1.0, 10.0])
        assert s.minimum == -1.0
        assert s.maximum == 10.0

    def test_count(self):
        s = OnlineStats()
        assert s.count == 0
        s.add(1.0)
        assert s.count == 1

    def test_single_value_variance_zero(self):
        s = OnlineStats()
        s.add(5.0)
        assert s.variance == 0.0

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            OnlineStats().mean

    def test_empty_variance_raises(self):
        with pytest.raises(ValueError):
            OnlineStats().variance

    def test_empty_minmax_raises(self):
        with pytest.raises(ValueError):
            OnlineStats().minimum
        with pytest.raises(ValueError):
            OnlineStats().maximum

    def test_merge_equivalent_to_combined_stream(self):
        left_data = [1.0, 2.0, 3.0]
        right_data = [10.0, -5.0]
        left, right, combined = OnlineStats(), OnlineStats(), OnlineStats()
        left.add_many(left_data)
        right.add_many(right_data)
        combined.add_many(left_data + right_data)
        merged = left.merge(right)
        assert merged.count == combined.count
        assert merged.mean == pytest.approx(combined.mean)
        assert merged.variance == pytest.approx(combined.variance)
        assert merged.minimum == combined.minimum
        assert merged.maximum == combined.maximum

    def test_merge_with_empty(self):
        s = OnlineStats()
        s.add_many([1.0, 2.0])
        merged = s.merge(OnlineStats())
        assert merged.count == 2
        assert merged.mean == pytest.approx(1.5)
        other_way = OnlineStats().merge(s)
        assert other_way.mean == pytest.approx(1.5)

    def test_merge_does_not_mutate_inputs(self):
        a, b = OnlineStats(), OnlineStats()
        a.add(1.0)
        b.add(3.0)
        a.merge(b)
        assert a.count == 1
        assert b.count == 1

    def test_numerical_stability_large_offset(self):
        base = 1e9
        data = [base + x for x in (0.1, 0.2, 0.3)]
        s = OnlineStats()
        s.add_many(data)
        # Values at a 1e9 offset only retain ~2e-7 absolute precision in
        # float64, so allow a proportionally loose tolerance.
        assert s.variance == pytest.approx(0.01, rel=1e-3)


class TestPercentile:
    def test_median(self):
        assert percentile([1.0, 2.0, 3.0], 50) == 2.0

    def test_extremes(self):
        data = [5.0, 1.0, 9.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 9.0

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestSummarize:
    def test_fields(self):
        data = [1.0, 2.0, 3.0, 4.0]
        s = summarize(data)
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.p50 == pytest.approx(2.5)

    def test_single_value(self):
        s = summarize([2.0])
        assert s.stddev == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_str_contains_stats(self):
        text = str(summarize([1.0, 2.0]))
        assert "mean=" in text and "p95=" in text


class TestFixedBinHistogram:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            FixedBinHistogram(upper=0.0)
        with pytest.raises(ValueError):
            FixedBinHistogram(num_bins=0)

    def test_negative_value_rejected(self):
        h = FixedBinHistogram()
        with pytest.raises(ValueError):
            h.add(-1.0)

    def test_basic_moments(self):
        h = FixedBinHistogram(upper=100.0)
        for v in (10.0, 20.0, 30.0):
            h.add(v)
        assert h.count == 3
        assert h.mean == pytest.approx(20.0)
        assert h.minimum == 10.0
        assert h.maximum == 30.0
        assert h.overflow_count == 0

    def test_percentiles_track_numpy_within_bin_width(self):
        rng = np.random.default_rng(5)
        data = rng.exponential(scale=100.0, size=5_000)
        h = FixedBinHistogram(upper=2_000.0, num_bins=512)
        for v in data:
            h.add(float(v))
        width = 2_000.0 / 512
        for q in (10, 50, 90, 95, 99):
            assert h.percentile(q) == pytest.approx(
                np.percentile(data, q), abs=2 * width
            )

    def test_extreme_percentiles_are_exact(self):
        h = FixedBinHistogram(upper=100.0)
        for v in (3.0, 42.0, 77.0):
            h.add(v)
        assert h.percentile(0) == 3.0
        assert h.percentile(100) == 77.0

    def test_overflow_bin_returns_exact_max(self):
        h = FixedBinHistogram(upper=10.0, num_bins=10)
        h.add(5.0)
        h.add(123.5)  # beyond upper
        assert h.overflow_count == 1
        assert h.percentile(100) == 123.5
        assert h.percentile(99) == 123.5

    def test_empty_queries_rejected(self):
        h = FixedBinHistogram()
        for query in (lambda: h.mean, lambda: h.minimum,
                      lambda: h.maximum, lambda: h.percentile(50)):
            with pytest.raises(ValueError):
                query()

    def test_out_of_range_q_rejected(self):
        h = FixedBinHistogram()
        h.add(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_reset(self):
        h = FixedBinHistogram()
        h.add(5.0)
        h.reset()
        assert h.count == 0
        with pytest.raises(ValueError):
            h.percentile(50)

    def test_merge(self):
        a = FixedBinHistogram(upper=100.0)
        b = FixedBinHistogram(upper=100.0)
        a.add(10.0)
        b.add(30.0)
        a.merge(b)
        assert a.count == 2
        assert a.mean == pytest.approx(20.0)
        assert a.maximum == 30.0

    def test_merge_shape_mismatch_rejected(self):
        a = FixedBinHistogram(upper=100.0)
        b = FixedBinHistogram(upper=50.0)
        with pytest.raises(ValueError):
            a.merge(b)
