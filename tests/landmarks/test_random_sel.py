"""Tests for the random landmark selector baseline."""

import numpy as np
import pytest

from repro.config import LandmarkConfig
from repro.errors import LandmarkSelectionError
from repro.landmarks import RandomSelector
from repro.probing import Prober
from repro.types import ORIGIN_NODE_ID


class TestRandomSelector:
    def test_origin_first(self, paper_network, rng):
        prober = Prober(paper_network, seed=0)
        lm = RandomSelector().select(
            prober, LandmarkConfig(num_landmarks=3), rng
        )
        assert lm.nodes[0] == ORIGIN_NODE_ID
        assert len(lm) == 3

    def test_landmarks_are_caches(self, paper_network, rng):
        prober = Prober(paper_network, seed=0)
        lm = RandomSelector().select(
            prober, LandmarkConfig(num_landmarks=4), rng
        )
        assert set(lm.cache_landmarks) <= set(paper_network.cache_nodes)

    def test_no_probes_issued(self, paper_network, rng):
        prober = Prober(paper_network, seed=0)
        RandomSelector().select(prober, LandmarkConfig(num_landmarks=4), rng)
        assert prober.stats.probes_sent == 0

    def test_objective_is_nan(self, paper_network, rng):
        prober = Prober(paper_network, seed=0)
        lm = RandomSelector().select(
            prober, LandmarkConfig(num_landmarks=3), rng
        )
        assert np.isnan(lm.min_pairwise_rtt)

    def test_distribution_uniform(self, paper_network):
        """Every cache appears as a landmark at a similar frequency."""
        prober = Prober(paper_network, seed=0)
        counts = {c: 0 for c in paper_network.cache_nodes}
        trials = 600
        rng = np.random.default_rng(0)
        for _ in range(trials):
            lm = RandomSelector().select(
                prober, LandmarkConfig(num_landmarks=2), rng
            )
            counts[lm.cache_landmarks[0]] += 1
        expected = trials / 6
        for count in counts.values():
            assert abs(count - expected) < 5 * np.sqrt(expected)

    def test_too_many_rejected(self, paper_network, rng):
        prober = Prober(paper_network, seed=0)
        with pytest.raises(LandmarkSelectionError):
            RandomSelector().select(
                prober, LandmarkConfig(num_landmarks=20), rng
            )
