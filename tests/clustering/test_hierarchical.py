"""Tests for the hierarchical clustering extension."""

import numpy as np
import pytest

from repro.clustering.hierarchical import HierarchicalClustering
from repro.errors import ClusteringError


def two_blocks():
    n = 6
    d = np.full((n, n), 50.0)
    np.fill_diagonal(d, 0.0)
    for block in (range(3), range(3, 6)):
        for i in block:
            for j in block:
                if i != j:
                    d[i, j] = 1.0
    return d


def mean_intra_cluster_distance(d, clustering):
    """Mean over non-empty clusters of the mean pairwise distance."""
    per_cluster = []
    for cluster in np.unique(clustering.labels):
        members = clustering.members(cluster)
        m = members.size
        block = d[np.ix_(members, members)]
        per_cluster.append(
            np.triu(block, k=1).sum() / (m * (m - 1) / 2) if m > 1 else 0.0
        )
    return float(np.mean(per_cluster))


class TestHierarchicalClustering:
    def test_recovers_blocks(self):
        result = HierarchicalClustering(k=2).fit(two_blocks())
        assert result.k == 2
        assert len(set(result.labels[:3].tolist())) == 1
        assert len(set(result.labels[3:].tolist())) == 1
        assert result.labels[0] != result.labels[3]

    @pytest.mark.parametrize("linkage", ["complete", "average", "single"])
    def test_all_linkages(self, linkage):
        result = HierarchicalClustering(k=2, linkage=linkage).fit(
            two_blocks()
        )
        assert result.k == 2

    def test_deterministic(self):
        a = HierarchicalClustering(k=3).fit(two_blocks())
        b = HierarchicalClustering(k=3).fit(two_blocks())
        assert np.array_equal(a.labels, b.labels)

    def test_k_equals_n(self):
        d = two_blocks()
        result = HierarchicalClustering(k=6).fit(d)
        assert sorted(result.cluster_sizes().tolist()) == [1] * 6

    def test_single_point(self):
        result = HierarchicalClustering(k=1).fit(np.zeros((1, 1)))
        assert result.labels.tolist() == [0]

    def test_diameter_cost_recorded(self):
        result = HierarchicalClustering(k=2).fit(two_blocks())
        # Two clusters of diameter 1 each.
        assert result.sse == pytest.approx(2.0)

    def test_unknown_linkage_rejected(self):
        with pytest.raises(ClusteringError):
            HierarchicalClustering(k=2, linkage="ward-ish")

    def test_asymmetric_rejected(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ClusteringError):
            HierarchicalClustering(k=1).fit(d)

    def test_negative_rejected(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ClusteringError):
            HierarchicalClustering(k=1).fit(d)

    def test_k_exceeds_n_rejected(self):
        with pytest.raises(ClusteringError):
            HierarchicalClustering(k=5).fit(np.zeros((2, 2)))

    def test_on_real_network_rtts(self, small_network):
        """Complete linkage on true RTTs yields tight groups."""
        d = small_network.distances.submatrix(small_network.cache_nodes)
        result = HierarchicalClustering(k=5).fit(d)
        tight = mean_intra_cluster_distance(d, result)
        # Against a random partition of the same sizes.
        rng = np.random.default_rng(0)
        random_costs = []
        for _ in range(10):
            labels = rng.permutation(result.labels)
            from repro.clustering.assignments import Clustering

            shuffled = Clustering(
                labels=labels, k=result.k, centers=result.centers
            )
            random_costs.append(mean_intra_cluster_distance(d, shuffled))
        assert tight < np.mean(random_costs)
