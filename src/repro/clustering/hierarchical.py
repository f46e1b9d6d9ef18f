"""Agglomerative hierarchical clustering (extension baseline).

The paper notes "any standard clustering algorithm may be similarly
modified"; complete-linkage agglomerative clustering is the natural
alternative to K-means for cache grouping because it directly bounds
each group's *diameter* — the quantity GICost averages.  It works on a
dissimilarity matrix (measured RTTs or feature-space distances), via
``scipy.cluster.hierarchy``.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.assignments import Clustering
from repro.errors import ClusteringError

_LINKAGES = ("complete", "average", "single")


class HierarchicalClustering:
    """Cut an agglomerative dendrogram into K clusters."""

    def __init__(self, k: int, linkage: str = "complete") -> None:
        if k < 1:
            raise ClusteringError(f"k must be >= 1, got {k}")
        if linkage not in _LINKAGES:
            raise ClusteringError(
                f"unknown linkage {linkage!r}; known: {', '.join(_LINKAGES)}"
            )
        self._k = k
        self._linkage = linkage

    @property
    def k(self) -> int:
        return self._k

    @property
    def linkage(self) -> str:
        return self._linkage

    def fit(self, dissimilarity: np.ndarray) -> Clustering:
        """Cluster on an ``(n, n)`` symmetric dissimilarity matrix.

        Deterministic (no seed needed): agglomeration order is fixed by
        the matrix.
        """
        from scipy.cluster import hierarchy
        from scipy.spatial.distance import squareform

        d = np.asarray(dissimilarity, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ClusteringError(
                f"dissimilarity must be square, got {d.shape}"
            )
        n = d.shape[0]
        if self._k > n:
            raise ClusteringError(f"k={self._k} exceeds {n} points")
        if np.any(d < 0):
            raise ClusteringError("dissimilarities cannot be negative")
        if not np.allclose(d, d.T, atol=1e-9):
            raise ClusteringError("dissimilarity matrix must be symmetric")

        if n == 1:
            labels = np.zeros(1, dtype=int)
        else:
            condensed = squareform(d, checks=False)
            tree = hierarchy.linkage(condensed, method=self._linkage)
            labels = hierarchy.fcluster(tree, t=self._k, criterion="maxclust")
            labels = np.asarray(labels, dtype=int) - 1  # 1-based -> 0-based
        actual_k = int(labels.max()) + 1
        # fcluster can return fewer clusters than requested for tied
        # dendrograms; report the k actually produced.
        cost = _diameter_sum(d, labels, actual_k)
        centers = np.zeros((actual_k, 1))
        return Clustering(
            labels=labels, k=actual_k, centers=centers,
            iterations=0, sse=cost,
        )


def _diameter_sum(d: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Sum of cluster diameters (complete-linkage's objective proxy)."""
    total = 0.0
    for cluster in range(k):
        members = np.flatnonzero(labels == cluster)
        if members.size >= 2:
            block = d[np.ix_(members, members)]
            total += float(block.max())
    return total
