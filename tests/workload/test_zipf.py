"""Tests for the bounded Zipf sampler."""

import pytest

from repro.errors import WorkloadError
from repro.workload import ZipfSampler


class TestZipfSampler:
    def test_probabilities_normalised(self):
        s = ZipfSampler(100, alpha=0.9)
        total = sum(s.probability_of_rank(r) for r in range(100))
        assert total == pytest.approx(1.0)

    def test_rank_ordering(self):
        s = ZipfSampler(50, alpha=1.0)
        probs = [s.probability_of_rank(r) for r in range(50)]
        assert probs == sorted(probs, reverse=True)

    def test_exact_ratios(self):
        s = ZipfSampler(3, alpha=1.0)
        p0, p1, p2 = (s.probability_of_rank(r) for r in range(3))
        assert p0 / p1 == pytest.approx(2.0)
        assert p0 / p2 == pytest.approx(3.0)

    def test_empirical_distribution(self, rng):
        s = ZipfSampler(10, alpha=0.8)
        draws = s.sample(rng, size=50_000)
        top_share = (draws == 0).mean()
        assert top_share == pytest.approx(s.probability_of_rank(0), abs=0.01)

    def test_samples_in_range(self, rng):
        s = ZipfSampler(20, alpha=0.9)
        draws = s.sample(rng, size=1000)
        assert draws.min() >= 0
        assert draws.max() < 20

    def test_permutation_remaps_items(self, rng):
        perm = list(reversed(range(10)))
        s = ZipfSampler(10, alpha=1.2, permutation=perm)
        draws = s.sample(rng, size=20_000)
        # Rank 0 now maps to item 9.
        assert (draws == 9).mean() > (draws == 0).mean()

    def test_sample_one(self, rng):
        s = ZipfSampler(5, alpha=1.0)
        assert 0 <= s.sample_one(rng) < 5

    def test_higher_alpha_more_skew(self, rng):
        flat = ZipfSampler(100, alpha=0.2)
        steep = ZipfSampler(100, alpha=1.5)
        assert steep.probability_of_rank(0) > flat.probability_of_rank(0)

    def test_bad_args_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(0, alpha=1.0)
        with pytest.raises(WorkloadError):
            ZipfSampler(5, alpha=0.0)

    def test_bad_permutation_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(3, alpha=1.0, permutation=[0, 1, 1])
        with pytest.raises(WorkloadError):
            ZipfSampler(3, alpha=1.0, permutation=[0, 1])

    def test_bad_sample_size_rejected(self, rng):
        with pytest.raises(WorkloadError):
            ZipfSampler(3, alpha=1.0).sample(rng, size=0)

    def test_rank_out_of_range(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(3, alpha=1.0).probability_of_rank(3)
