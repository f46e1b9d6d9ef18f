"""Tests for topology drift."""

import hashlib

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology.drift import (
    drift_network,
    drift_series,
    mean_relative_rtt_change,
)
from repro.topology.network import build_network

#: SHA-256 over the RTT matrices of a 3-step walk from
#: ``build_network(num_caches=20, seed=3)`` with ``scale=0.1, seed=5``.
#: It pins the per-link draw order: one normal draw per link, in
#: ``NetworkGraph.links()`` order.
DRIFT_SERIES_DIGEST = (
    "a3055f2bf611638c5f24e15bc07a8cb8f8639f6e4a06538769c0f218dac7d53b"
)


class TestDriftNetwork:
    def test_metric_preserved(self, small_network):
        drifted = drift_network(small_network, scale=0.2, seed=1)
        arr = drifted.distances.as_array()
        assert np.allclose(arr, arr.T)
        assert np.allclose(np.diag(arr), 0.0)
        n = arr.shape[0]
        for k in range(n):
            via_k = arr[:, k][:, None] + arr[k, :][None, :]
            assert (arr <= via_k + 1e-9).all()

    def test_placement_unchanged(self, small_network):
        drifted = drift_network(small_network, scale=0.1, seed=2)
        assert drifted.placement == small_network.placement
        assert drifted.num_caches == small_network.num_caches

    def test_zero_scale_identity(self, small_network):
        drifted = drift_network(small_network, scale=0.0, seed=3)
        assert np.allclose(
            drifted.distances.as_array(),
            small_network.distances.as_array(),
        )

    def test_drift_magnitude_tracks_scale(self, small_network):
        small = drift_network(small_network, scale=0.02, seed=4)
        large = drift_network(small_network, scale=0.4, seed=4)
        assert mean_relative_rtt_change(
            small_network, small
        ) < mean_relative_rtt_change(small_network, large)

    def test_reproducible(self, small_network):
        a = drift_network(small_network, scale=0.2, seed=5)
        b = drift_network(small_network, scale=0.2, seed=5)
        assert np.allclose(
            a.distances.as_array(), b.distances.as_array()
        )

    def test_requires_graph(self, paper_network):
        with pytest.raises(TopologyError):
            drift_network(paper_network, scale=0.1)

    def test_negative_scale_rejected(self, small_network):
        with pytest.raises(TopologyError):
            drift_network(small_network, scale=-0.1)


class TestDriftSeries:
    def test_accumulating_walk(self, small_network):
        series = list(drift_series(small_network, steps=5, scale=0.1, seed=6))
        assert len(series) == 5
        changes = [
            mean_relative_rtt_change(small_network, net) for net in series
        ]
        # A random walk drifts away on average: the last step is farther
        # from the origin than the first.
        assert changes[-1] > changes[0]

    def test_each_step_valid(self, small_network):
        for net in drift_series(small_network, steps=3, scale=0.15, seed=7):
            assert net.num_caches == small_network.num_caches
            assert np.isfinite(net.distances.as_array()).all()

    def test_walk_digest_pinned(self):
        network = build_network(num_caches=20, seed=3)
        digest = hashlib.sha256()
        for step in drift_series(network, steps=3, scale=0.1, seed=5):
            digest.update(step.distances.as_array().tobytes())
        assert digest.hexdigest() == DRIFT_SERIES_DIGEST

    def test_bad_steps_rejected(self, small_network):
        with pytest.raises(TopologyError):
            list(drift_series(small_network, steps=0))


class TestMeanRelativeChange:
    def test_identity_zero(self, small_network):
        assert mean_relative_rtt_change(small_network, small_network) == 0.0

    def test_size_mismatch_rejected(self, small_network, paper_network):
        with pytest.raises(TopologyError):
            mean_relative_rtt_change(small_network, paper_network)
