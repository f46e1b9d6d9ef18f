"""K-means clustering over feature vectors (paper Section 3.3).

The paper's three phases map directly:

* *Initialization Phase* — a :class:`CenterInitializer` picks K caches
  as cluster centers and every other cache joins its nearest center;
* *Iterative Phase* — recompute mean vectors, reassign caches to the
  nearest new center, repeat "until the number of caches that were
  reassigned in the current iteration becomes minimal" (we stop at
  ``reassignment_tolerance``, default 0, or ``max_iterations``);
* *Termination Phase* — the final labels become cache groups (handled
  by :mod:`repro.core.groups`).

Distances are L2 in feature space.  Empty clusters are re-seeded with
the point farthest from its current center, a standard remedy that
keeps K groups alive as the paper's figures assume.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import KMeansConfig
from repro.clustering.assignments import Clustering
from repro.clustering.init import CenterInitializer, UniformRandomInit
from repro.errors import ClusteringError
from repro.obs.profiling import phase_timer
from repro.utils.rng import SeedLike, spawn_rng


class KMeans:
    """Lloyd's K-means with pluggable initialization.

    >>> import numpy as np
    >>> points = np.array([[0.0], [0.1], [5.0], [5.1]])
    >>> result = KMeans(k=2).fit(points, seed=1)
    >>> sorted(result.cluster_sizes().tolist())
    [2, 2]
    """

    def __init__(
        self,
        k: int,
        config: Optional[KMeansConfig] = None,
        initializer: Optional[CenterInitializer] = None,
    ) -> None:
        if k < 1:
            raise ClusteringError(f"k must be >= 1, got {k}")
        self._k = k
        self._config = config or KMeansConfig()
        self._config.validate()
        self._initializer = initializer or UniformRandomInit()

    @property
    def k(self) -> int:
        return self._k

    @property
    def initializer(self) -> CenterInitializer:
        return self._initializer

    def fit(self, points: np.ndarray, seed: SeedLike = None) -> Clustering:
        """Cluster ``points`` (an ``(n, d)`` array) into K groups.

        With ``restarts > 1`` the best run (lowest SSE) wins; all
        restarts share the one ``seed``-derived generator so results stay
        reproducible.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ClusteringError(
                f"points must be a non-empty (n, d) array, got {points.shape}"
            )
        if self._k > points.shape[0]:
            raise ClusteringError(
                f"k={self._k} exceeds the number of points {points.shape[0]}"
            )
        rng = spawn_rng(seed)
        best: Optional[Clustering] = None
        with phase_timer("cluster/kmeans"):
            for _ in range(self._config.restarts):
                candidate = self._fit_once(points, rng)
                if best is None or candidate.sse < best.sse:
                    best = candidate
        assert best is not None  # restarts >= 1
        return best

    def _fit_once(
        self, points: np.ndarray, rng: np.random.Generator
    ) -> Clustering:
        center_idx = self._initializer.choose(points, self._k, rng)
        centers = points[center_idx].copy()
        labels = _nearest_center(points, centers)

        iterations = 0
        for iterations in range(1, self._config.max_iterations + 1):
            centers = _recompute_centers(points, labels, centers, self._k)
            new_labels = _nearest_center(points, centers)
            reassigned = int((new_labels != labels).sum())
            labels = new_labels
            if reassigned <= self._config.reassignment_tolerance:
                break

        labels, centers = _fix_empty_clusters(points, labels, centers, self._k)
        sse = _sse(points, labels, centers)
        return Clustering(
            labels=labels, k=self._k, centers=centers,
            iterations=iterations, sse=sse,
        )


def _nearest_center(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Label each point with the index of its nearest (L2) center."""
    # (n, k) squared distances without materialising (n, k, d).
    p_sq = (points**2).sum(axis=1)[:, None]
    c_sq = (centers**2).sum(axis=1)[None, :]
    cross = points @ centers.T
    dist_sq = p_sq + c_sq - 2.0 * cross
    return np.argmin(dist_sq, axis=1)


def _recompute_centers(
    points: np.ndarray,
    labels: np.ndarray,
    old_centers: np.ndarray,
    k: int,
) -> np.ndarray:
    """Mean vector per cluster; empty clusters keep their old center.

    One stable sort lays each cluster's rows out as one contiguous
    block in their original order, so each block's ``mean`` adds the
    same rows in the same order as ``points[labels == cluster]`` would.
    """
    centers = old_centers.copy()
    order = np.argsort(labels, kind="stable")
    grouped = points[order]
    ends = np.cumsum(np.bincount(labels, minlength=k)).tolist()
    start = 0
    for cluster, end in enumerate(ends):
        if end > start:
            centers[cluster] = grouped[start:end].mean(axis=0)
        start = end
    return centers


def _fix_empty_clusters(
    points: np.ndarray,
    labels: np.ndarray,
    centers: np.ndarray,
    k: int,
) -> tuple:
    """Re-seed each empty cluster with the point farthest from its center."""
    labels = labels.copy()
    centers = centers.copy()
    sizes = np.bincount(labels, minlength=k)
    for cluster in range(k):
        if sizes[cluster] > 0:
            continue
        residuals = np.linalg.norm(points - centers[labels], axis=1)
        # Only points from clusters with >= 2 members may move.
        movable = sizes[labels] >= 2
        if not movable.any():
            continue  # degenerate: fewer distinct points than clusters
        residuals = np.where(movable, residuals, -np.inf)
        victim = int(np.argmax(residuals))
        sizes[labels[victim]] -= 1
        labels[victim] = cluster
        sizes[cluster] += 1
        centers[cluster] = points[victim]
    return labels, centers


def _sse(points: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> float:
    """Sum of squared L2 distances of points to their cluster centers."""
    residuals = points - centers[labels]
    return float((residuals**2).sum())
