"""Property-based tests for streaming statistics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.stats import OnlineStats, summarize

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestOnlineStatsProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_matches_numpy(self, data):
        s = OnlineStats()
        s.add_many(data)
        assert s.count == len(data)
        assert s.mean == pytest.approx(np.mean(data), rel=1e-9, abs=1e-6)
        if len(data) > 1:
            assert s.variance == pytest.approx(
                np.var(data, ddof=1), rel=1e-6, abs=1e-6
            )
        assert s.minimum == min(data)
        assert s.maximum == max(data)

    @given(
        st.lists(finite_floats, min_size=1, max_size=100),
        st.lists(finite_floats, min_size=1, max_size=100),
    )
    def test_merge_equals_concat(self, left, right):
        a, b, c = OnlineStats(), OnlineStats(), OnlineStats()
        a.add_many(left)
        b.add_many(right)
        c.add_many(left + right)
        merged = a.merge(b)
        assert merged.count == c.count
        assert merged.mean == pytest.approx(c.mean, rel=1e-9, abs=1e-6)
        assert merged.variance == pytest.approx(
            c.variance, rel=1e-6, abs=1e-6
        )

    @given(st.lists(finite_floats, min_size=1, max_size=100))
    def test_variance_non_negative(self, data):
        s = OnlineStats()
        s.add_many(data)
        assert s.variance >= -1e-9

    @given(st.lists(finite_floats, min_size=2, max_size=100))
    def test_summary_percentiles_ordered(self, data):
        s = summarize(data)
        assert s.minimum <= s.p50 <= s.p95 <= s.maximum
