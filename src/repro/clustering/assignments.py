"""The :class:`Clustering` result type: a partition of points into K
clusters, with provenance (iterations run, final SSE)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.errors import ClusteringError


@dataclass(frozen=True)
class Clustering:
    """A hard partition of ``n`` points into ``k`` clusters.

    ``labels[i]`` is the cluster index of point ``i``; cluster indices
    are dense in ``[0, k)`` but clusters may be empty (K-means can empty
    a cluster; callers that need non-empty groups re-seed or drop them).
    """

    labels: np.ndarray
    k: int
    centers: np.ndarray = field(repr=False)
    iterations: int = 0
    sse: float = float("nan")

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=int)
        if labels.ndim != 1:
            raise ClusteringError("labels must be a 1-D array")
        if self.k < 1:
            raise ClusteringError(f"k must be >= 1, got {self.k}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.k):
            raise ClusteringError(
                f"labels must lie in [0, {self.k}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "labels", labels)
        labels.setflags(write=False)

    def members(self, cluster: int) -> np.ndarray:
        """Point indices belonging to ``cluster``."""
        if not 0 <= cluster < self.k:
            raise ClusteringError(f"cluster {cluster} out of range [0, {self.k})")
        return np.flatnonzero(self.labels == cluster)

    def cluster_sizes(self) -> np.ndarray:
        """Size of each cluster, indexed by cluster id."""
        return np.bincount(self.labels, minlength=self.k)

    def non_empty_clusters(self) -> List[int]:
        """Cluster ids that contain at least one point."""
        return [c for c, size in enumerate(self.cluster_sizes()) if size > 0]

    def as_groups(self) -> List[Tuple[int, ...]]:
        """Clusters as tuples of point indices (empty clusters omitted)."""
        return [
            tuple(int(i) for i in self.members(c))
            for c in self.non_empty_clusters()
        ]
