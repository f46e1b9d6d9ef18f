"""Tests for the min-dist (adversarial) landmark selector."""

import numpy as np

from repro.config import LandmarkConfig
from repro.landmarks import GreedyMaxMinSelector, MinDistSelector
from repro.probing import NoNoise, Prober


class TestMinDistSelector:
    def test_origin_first_and_count(self, paper_network, rng):
        prober = Prober(paper_network, noise=NoNoise(), seed=0)
        lm = MinDistSelector().select(
            prober, LandmarkConfig(num_landmarks=3), rng
        )
        assert lm.nodes[0] == 0
        assert len(lm) == 3

    def test_bunches_landmarks(self, exact_prober):
        """On the paper network, min-dist picks the caches closest to Os.

        From the full PLSet the dual-greedy adds Ec1 (8ms from Os) and
        then the node minimising its max distance to {Os, Ec1}.
        """
        selector = MinDistSelector()
        lm = selector.select_from_potential(
            exact_prober,
            LandmarkConfig(num_landmarks=3),
            [1, 2, 3, 4, 5, 6],
        )
        # Whatever the exact picks, the spread must not exceed greedy's.
        greedy = GreedyMaxMinSelector().select_from_potential(
            exact_prober,
            LandmarkConfig(num_landmarks=3),
            [1, 2, 3, 4, 5, 6],
        )
        assert lm.min_pairwise_rtt <= greedy.min_pairwise_rtt

    def test_spread_below_greedy_on_generated_network(self, small_network):
        config = LandmarkConfig(num_landmarks=5, multiplier=4)
        diffs = []
        for seed in range(5):
            prober = Prober(small_network, noise=NoNoise(), seed=seed)
            rng_a = np.random.default_rng(seed)
            rng_b = np.random.default_rng(seed)
            greedy = GreedyMaxMinSelector().select(prober, config, rng_a)
            mindist = MinDistSelector().select(prober, config, rng_b)
            diffs.append(greedy.min_pairwise_rtt - mindist.min_pairwise_rtt)
        assert np.mean(diffs) > 0

    def test_select_from_potential_shared_plset(self, exact_prober):
        """Same PLSet -> min-dist spread <= greedy spread, deterministically."""
        plset = [1, 2, 4, 5]
        config = LandmarkConfig(num_landmarks=3)
        greedy = GreedyMaxMinSelector().select_from_potential(
            exact_prober, config, plset
        )
        mindist = MinDistSelector().select_from_potential(
            exact_prober, config, plset
        )
        assert mindist.min_pairwise_rtt <= greedy.min_pairwise_rtt
