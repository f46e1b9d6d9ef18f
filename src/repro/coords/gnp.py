"""GNP-style Euclidean coordinate embedding (paper Section 5.2 baseline).

Global Network Positioning (Ng & Zhang, INFOCOM 2002) maps hosts into a
D-dimensional Euclidean space in two phases:

1. the landmarks embed *themselves* by minimising the total squared
   relative error between measured inter-landmark RTTs and coordinate
   (L2) distances;
2. every other host solves the same least-squares problem against the
   now-fixed landmark coordinates, using only its own measured RTTs to
   the landmarks.

Both phases use ``scipy.optimize.minimize`` (L-BFGS-B), with multiple
random restarts for the (non-convex) landmark phase.  The paper's
Figure 7 compares K-means on these coordinates against K-means on raw
feature vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import GNPConfig
from repro.errors import EmbeddingError
from repro.landmarks.feature_vectors import FeatureVectors
from repro.probing.prober import Prober
from repro.utils.rng import SeedLike, spawn_rng


@dataclass(frozen=True)
class GNPEmbedding:
    """Result of a GNP embedding.

    ``landmark_coords[j]`` positions landmark ``j`` (ordered as in the
    landmark set); ``node_coords[i]`` positions node ``i`` (ordered as in
    the feature-vector node tuple).  ``landmark_fit_error`` is the mean
    relative error of the landmark self-embedding.
    """

    nodes: tuple
    node_coords: np.ndarray
    landmark_coords: np.ndarray
    landmark_fit_error: float

    def __post_init__(self) -> None:
        if self.node_coords.shape[0] != len(self.nodes):
            raise EmbeddingError(
                f"{self.node_coords.shape[0]} coordinate rows for "
                f"{len(self.nodes)} nodes"
            )
        self.node_coords.setflags(write=False)
        self.landmark_coords.setflags(write=False)

    @property
    def dimensions(self) -> int:
        return self.node_coords.shape[1]

    def coordinate_distance(self, i: int, j: int) -> float:
        """L2 distance between two embedded nodes (by row index)."""
        return float(
            np.linalg.norm(self.node_coords[i] - self.node_coords[j])
        )


def _scatter_pairs(
    ends: np.ndarray, contrib: np.ndarray, count: int
) -> np.ndarray:
    """``(count, dims)`` sums of ``contrib[p]`` into node ``iu[p]`` and
    ``-contrib[p]`` into node ``ju[p]``, where ``ends = concat(iu, ju)``.

    ``np.bincount`` adds each bin's weights from 0.0 in index order:
    first the pairs at ``iu``, then the pairs at ``ju``, which is the
    order of ``np.add.at(grad, iu, contrib)`` followed by
    ``np.add.at(grad, ju, -contrib)``, so the sums are bit-identical.
    """
    weights = np.concatenate((contrib, -contrib))
    return np.column_stack([
        np.bincount(ends, weights=weights[:, dim], minlength=count)
        for dim in range(contrib.shape[1])
    ])


def _embed_landmarks(
    measured: np.ndarray,
    dims: int,
    max_iterations: int,
    restarts: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Phase 1: landmarks position themselves (non-convex, restarted).

    The objective hands L-BFGS-B its analytic gradient: for each pair
    ``p = (i, j)`` with relative error ``e_p = (|ci-cj| - d_p)/d_p``,
    ``dF/dci = sum_p 2 e_p/d_p * (ci-cj)/|ci-cj|``.  Without it the
    optimiser falls back to finite differences — ``count*dims + 1``
    objective evaluations per step — which used to dominate the whole
    Figure 7 run.
    """
    from scipy import optimize

    count = measured.shape[0]
    scale = float(measured.max()) or 1.0

    iu, ju = np.triu_indices(count, k=1)
    target = measured[iu, ju]
    positive = target > 0
    ends = np.concatenate((iu, ju))

    def objective(flat: np.ndarray):
        coords = flat.reshape(count, dims)
        diff = coords[iu] - coords[ju]
        dist = np.linalg.norm(diff, axis=1)
        err = np.zeros_like(dist)
        err[positive] = (dist[positive] - target[positive]) / target[positive]
        value = float((err[positive] ** 2).sum())
        # d(value)/d(dist) per pair, guarded where |ci-cj| == 0 (the
        # objective is non-differentiable there; a zero subgradient
        # keeps L-BFGS-B stable).
        weight = np.zeros_like(dist)
        weight[positive] = 2.0 * err[positive] / target[positive]
        nonzero = dist > 0
        coef = np.where(nonzero, weight / np.where(nonzero, dist, 1.0), 0.0)
        grad = _scatter_pairs(ends, diff * coef[:, None], count)
        return value, grad.ravel()

    best_coords: Optional[np.ndarray] = None
    best_value = np.inf
    for _ in range(restarts):
        start = rng.normal(0.0, scale / 2.0, size=count * dims)
        result = optimize.minimize(
            objective, start, method="L-BFGS-B", jac=True,
            options={"maxiter": max_iterations},
        )
        if result.fun < best_value:
            best_value = float(result.fun)
            best_coords = result.x.reshape(count, dims)
    if best_coords is None:
        raise EmbeddingError("landmark embedding produced no solution")
    return best_coords


def _embed_node(
    rtts_to_landmarks: np.ndarray,
    landmark_coords: np.ndarray,
    max_iterations: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Phase 2: one node positions itself against fixed landmarks.

    Same analytic-gradient treatment as phase 1, specialised to a
    single moving point against fixed landmark coordinates.
    """
    from scipy import optimize

    dims = landmark_coords.shape[1]
    positive = rtts_to_landmarks > 0
    target = rtts_to_landmarks[positive]
    anchors = landmark_coords[positive]

    def objective(coord: np.ndarray):
        diff = coord[None, :] - anchors
        dist = np.linalg.norm(diff, axis=1)
        err = (dist - target) / target
        value = float((err**2).sum())
        weight = 2.0 * err / target
        nonzero = dist > 0
        coef = np.where(nonzero, weight / np.where(nonzero, dist, 1.0), 0.0)
        grad = (diff * coef[:, None]).sum(axis=0)
        return value, grad

    # Start at the centroid of the landmarks, lightly perturbed.
    start = landmark_coords.mean(axis=0) + rng.normal(0.0, 1.0, size=dims)
    if not positive.any():
        return start
    result = optimize.minimize(
        objective, start, method="L-BFGS-B", jac=True,
        options={"maxiter": max_iterations},
    )
    return result.x


def embed_gnp(
    prober: Prober,
    features: FeatureVectors,
    config: Optional[GNPConfig] = None,
    seed: SeedLike = None,
) -> GNPEmbedding:
    """Embed all feature-vector nodes into GNP Euclidean coordinates.

    Reuses the already-measured node→landmark RTTs from ``features``
    (both schemes in the paper's Figure 7 share "the same sets of 25
    landmarks"); only inter-landmark RTTs are probed afresh here.
    """
    config = config or GNPConfig()
    config.validate()
    rng = spawn_rng(seed)

    landmarks = list(features.landmarks)
    if config.dimensions >= len(landmarks):
        raise EmbeddingError(
            f"GNP needs dimensions < number of landmarks "
            f"({config.dimensions} >= {len(landmarks)})"
        )
    inter_landmark = prober.measure_matrix(landmarks)
    landmark_coords = _embed_landmarks(
        inter_landmark,
        config.dimensions,
        config.max_iterations,
        config.landmark_restarts,
        rng,
    )

    pred = np.linalg.norm(
        landmark_coords[:, None, :] - landmark_coords[None, :, :], axis=2
    )
    iu, ju = np.triu_indices(len(landmarks), k=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(pred[iu, ju] - inter_landmark[iu, ju]) / np.where(
            inter_landmark[iu, ju] > 0, inter_landmark[iu, ju], 1.0
        )
    fit_error = float(rel.mean()) if rel.size else 0.0

    node_coords = np.empty((len(features.nodes), config.dimensions))
    for row in range(len(features.nodes)):
        node_coords[row] = _embed_node(
            features.matrix[row],
            landmark_coords,
            config.max_iterations,
            rng,
        )
    return GNPEmbedding(
        nodes=features.nodes,
        node_coords=node_coords,
        landmark_coords=landmark_coords,
        landmark_fit_error=fit_error,
    )
