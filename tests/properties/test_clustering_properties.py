"""Property-based tests for clustering invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.clustering import KMeans, ServerDistanceBiasedInit


@st.composite
def point_sets(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    points = draw(
        arrays(
            dtype=np.float64,
            shape=(n, d),
            elements=st.floats(
                min_value=-100, max_value=100,
                allow_nan=False, allow_infinity=False,
            ),
        )
    )
    k = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**31 - 1))
    return points, k, seed


class TestKMeansProperties:
    @settings(max_examples=40, deadline=None)
    @given(point_sets())
    def test_partition_invariants(self, case):
        points, k, seed = case
        result = KMeans(k=k).fit(points, seed=seed)
        # Every point gets exactly one label in range.
        assert result.labels.shape == (points.shape[0],)
        assert result.labels.min() >= 0
        assert result.labels.max() < k
        # Sizes sum to n.
        assert result.cluster_sizes().sum() == points.shape[0]
        # SSE is non-negative and finite.
        assert np.isfinite(result.sse)
        assert result.sse >= 0

    @settings(max_examples=25, deadline=None)
    @given(point_sets())
    def test_sse_not_worse_than_init_assignment(self, case):
        """Converged SSE <= the SSE of clustering all points to one
        center at the global mean times k=1 bound (sanity ordering)."""
        points, k, seed = case
        result = KMeans(k=k).fit(points, seed=seed)
        one = KMeans(k=1).fit(points, seed=seed)
        assert result.sse <= one.sse + 1e-6

    @settings(max_examples=25, deadline=None)
    @given(point_sets())
    def test_deterministic_given_seed(self, case):
        points, k, seed = case
        a = KMeans(k=k).fit(points, seed=seed)
        b = KMeans(k=k).fit(points, seed=seed)
        assert np.array_equal(a.labels, b.labels)


class TestSDSLInitProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        arrays(
            dtype=np.float64,
            shape=st.integers(2, 30),
            elements=st.floats(
                min_value=0.0, max_value=1e4,
                allow_nan=False, allow_infinity=False,
            ),
        ),
        st.floats(min_value=0.0, max_value=4.0),
    )
    def test_probabilities_valid(self, distances, theta):
        init = ServerDistanceBiasedInit(distances, theta=theta)
        probs = init.selection_probabilities()
        assert probs.shape == distances.shape
        assert (probs >= 0).all()
        assert probs.sum() == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
            min_size=2, max_size=30, unique=True,
        ),
        st.floats(min_value=0.1, max_value=4.0),
    )
    def test_monotone_in_distance(self, distances, theta):
        """Strictly nearer caches never have lower selection probability."""
        distances = np.asarray(distances)
        init = ServerDistanceBiasedInit(distances, theta=theta)
        probs = init.selection_probabilities()
        order = np.argsort(distances)
        sorted_probs = probs[order]
        assert (np.diff(sorted_probs) <= 1e-12).all()

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=1e3, allow_nan=False),
            min_size=3, max_size=20,
        )
    )
    def test_theta_zero_uniform(self, distances):
        init = ServerDistanceBiasedInit(np.asarray(distances), theta=0.0)
        probs = init.selection_probabilities()
        assert probs == pytest.approx(np.full(len(distances), 1 / len(distances)))
