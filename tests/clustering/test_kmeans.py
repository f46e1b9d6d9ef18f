"""Tests for the K-means implementation (SL step 3)."""

import numpy as np
import pytest

from repro.clustering import KMeans
from repro.config import KMeansConfig
from repro.errors import ClusteringError


def blobs(rng, centers, per_blob=20, spread=0.3):
    points = []
    for cx, cy in centers:
        points.append(
            rng.normal((cx, cy), spread, size=(per_blob, 2))
        )
    return np.vstack(points)


class TestFit:
    def test_separable_blobs_recovered(self, rng):
        points = blobs(rng, [(0, 0), (10, 10), (-10, 10)])
        result = KMeans(k=3, config=KMeansConfig(restarts=5)).fit(
            points, seed=0
        )
        sizes = sorted(result.cluster_sizes().tolist())
        assert sizes == [20, 20, 20]
        # All points of one blob share a label.
        for blob in range(3):
            labels = result.labels[blob * 20:(blob + 1) * 20]
            assert len(set(labels.tolist())) == 1

    def test_partition_covers_all_points(self, rng):
        points = rng.random((30, 4))
        result = KMeans(k=5).fit(points, seed=1)
        assert result.labels.size == 30
        assert result.cluster_sizes().sum() == 30

    def test_k_equals_n(self, rng):
        points = rng.random((6, 2)) * 100
        result = KMeans(k=6).fit(points, seed=2)
        assert sorted(result.cluster_sizes().tolist()) == [1] * 6

    def test_k_one(self, rng):
        points = rng.random((10, 2))
        result = KMeans(k=1).fit(points, seed=3)
        assert result.cluster_sizes().tolist() == [10]
        assert result.centers[0] == pytest.approx(points.mean(axis=0))

    def test_sse_decreases_with_k(self, rng):
        points = rng.random((50, 3))
        config = KMeansConfig(restarts=3)
        sse = [
            KMeans(k=k, config=config).fit(points, seed=4).sse
            for k in (1, 5, 25)
        ]
        assert sse[0] > sse[1] > sse[2]

    def test_restarts_never_worse(self, rng):
        points = blobs(rng, [(0, 0), (5, 5), (10, 0)], per_blob=15)
        single = KMeans(k=3, config=KMeansConfig(restarts=1)).fit(
            points, seed=5
        )
        multi = KMeans(k=3, config=KMeansConfig(restarts=8)).fit(
            points, seed=5
        )
        assert multi.sse <= single.sse + 1e-9

    def test_reproducible(self, rng):
        points = rng.random((40, 2))
        a = KMeans(k=4).fit(points, seed=6)
        b = KMeans(k=4).fit(points, seed=6)
        assert np.array_equal(a.labels, b.labels)

    def test_identical_points(self):
        points = np.ones((8, 2))
        result = KMeans(k=3).fit(points, seed=7)
        assert result.cluster_sizes().sum() == 8
        assert result.sse == pytest.approx(0.0)

    def test_no_empty_clusters_after_fix(self, rng):
        """The empty-cluster re-seeding keeps K live groups."""
        points = rng.random((30, 2))
        for seed in range(10):
            result = KMeans(k=10).fit(points, seed=seed)
            assert (result.cluster_sizes() > 0).all()

    def test_k_larger_than_n_rejected(self, rng):
        with pytest.raises(ClusteringError):
            KMeans(k=10).fit(rng.random((5, 2)), seed=0)

    def test_empty_points_rejected(self):
        with pytest.raises(ClusteringError):
            KMeans(k=1).fit(np.zeros((0, 2)), seed=0)

    def test_1d_points_rejected(self):
        with pytest.raises(ClusteringError):
            KMeans(k=1).fit(np.zeros(5), seed=0)

    def test_bad_k_rejected(self):
        with pytest.raises(ClusteringError):
            KMeans(k=0)

    def test_iterations_recorded(self, rng):
        points = rng.random((20, 2))
        result = KMeans(k=3).fit(points, seed=8)
        assert 1 <= result.iterations <= KMeansConfig().max_iterations

    def test_max_iterations_respected(self, rng):
        points = rng.random((50, 2))
        result = KMeans(
            k=5, config=KMeansConfig(max_iterations=2)
        ).fit(points, seed=9)
        assert result.iterations <= 2


class TestPaperFigure2:
    def test_natural_pairs_found(self, exact_prober):
        """K-means on Figure 2's feature vectors finds the paper's pairs."""
        from repro.landmarks import LandmarkSet, build_feature_vectors

        landmarks = LandmarkSet(nodes=(0, 1, 5))
        fv = build_feature_vectors(exact_prober, landmarks)
        result = KMeans(k=3, config=KMeansConfig(restarts=10)).fit(
            fv.matrix, seed=1
        )
        groups = sorted(
            tuple(sorted(fv.nodes[i] for i in members))
            for members in result.as_groups()
        )
        # {Ec0, Ec1}, {Ec2, Ec3}, {Ec4, Ec5} in node ids.
        assert groups == [(1, 2), (3, 4), (5, 6)]


def masked_centers(points, labels, old_centers, k):
    """The per-cluster mask scan that ``_recompute_centers`` replaces."""
    centers = old_centers.copy()
    for cluster in range(k):
        mask = labels == cluster
        if mask.any():
            centers[cluster] = points[mask].mean(axis=0)
    return centers


class TestRecomputeCenters:
    @pytest.mark.parametrize("dims", [1, 2, 7, 25])
    def test_bit_identical_to_the_mask_scan(self, dims):
        from repro.clustering.kmeans import _recompute_centers

        rng = np.random.default_rng(dims)
        for _ in range(20):
            n = int(rng.integers(1, 400))
            k = int(rng.integers(1, 60))
            # Labels from a random subset of clusters: some stay empty.
            used = rng.choice(k, size=int(rng.integers(1, k + 1)))
            labels = used[rng.integers(0, used.size, size=n)]
            points = rng.normal(0.0, 1e3, size=(n, dims))
            old = rng.normal(size=(k, dims))
            got = _recompute_centers(points, labels, old, k)
            expected = masked_centers(points, labels, old, k)
            assert got.tobytes() == expected.tobytes()
            empty = np.bincount(labels, minlength=k) == 0
            assert np.array_equal(got[empty], old[empty])
