"""Tests for the Clustering result type."""

import numpy as np
import pytest

from repro.clustering import Clustering
from repro.errors import ClusteringError


def make(labels, k):
    labels = np.asarray(labels)
    centers = np.zeros((k, 2))
    return Clustering(labels=labels, k=k, centers=centers)


class TestClustering:
    def test_members(self):
        c = make([0, 1, 0, 2], k=3)
        assert c.members(0).tolist() == [0, 2]
        assert c.members(1).tolist() == [1]

    def test_cluster_sizes(self):
        c = make([0, 1, 0], k=3)
        assert c.cluster_sizes().tolist() == [2, 1, 0]

    def test_non_empty_clusters(self):
        c = make([0, 2, 0], k=3)
        assert c.non_empty_clusters() == [0, 2]

    def test_as_groups_drops_empty(self):
        c = make([0, 2, 0], k=3)
        assert c.as_groups() == [(0, 2), (1,)]

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ClusteringError):
            make([0, 3], k=3)

    def test_negative_label_rejected(self):
        with pytest.raises(ClusteringError):
            make([-1, 0], k=2)

    def test_bad_k_rejected(self):
        with pytest.raises(ClusteringError):
            make([0], k=0)

    def test_2d_labels_rejected(self):
        with pytest.raises(ClusteringError):
            Clustering(
                labels=np.zeros((2, 2), dtype=int), k=1, centers=np.zeros((1, 1))
            )

    def test_member_query_out_of_range(self):
        c = make([0], k=1)
        with pytest.raises(ClusteringError):
            c.members(5)

    def test_labels_read_only(self):
        c = make([0, 1], k=2)
        with pytest.raises(ValueError):
            c.labels[0] = 1
