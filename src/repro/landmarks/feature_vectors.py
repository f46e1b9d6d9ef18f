"""Feature-vector construction — SL step 2 (paper Section 3.2).

Every node (the origin and all caches) probes every landmark multiple
times and records the averaged RTTs; the resulting L-dimensional vector
is the node's *feature vector*, its relative position in the Internet.
Positional dissimilarity between two nodes is the L2 distance between
their feature vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import LandmarkSelectionError
from repro.landmarks.base import LandmarkSet
from repro.obs.profiling import phase_timer
from repro.probing.prober import Prober
from repro.types import NodeId


@dataclass(frozen=True)
class FeatureVectors:
    """Feature vectors for a set of nodes against one landmark set.

    ``matrix[i]`` is the feature vector of ``nodes[i]``; column ``j``
    holds the measured RTT to ``landmarks.nodes[j]``.
    """

    nodes: tuple
    landmarks: LandmarkSet
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.matrix.shape != (len(self.nodes), len(self.landmarks)):
            raise LandmarkSelectionError(
                f"feature matrix shape {self.matrix.shape} does not match "
                f"{len(self.nodes)} nodes x {len(self.landmarks)} landmarks"
            )
        self.matrix.setflags(write=False)

    @property
    def dimension(self) -> int:
        """Feature-space dimensionality (= number of landmarks)."""
        return self.matrix.shape[1]

    def vector_of(self, node: NodeId) -> np.ndarray:
        """The feature vector of one node."""
        try:
            row = self.nodes.index(node)
        except ValueError:
            raise LandmarkSelectionError(
                f"node {node} has no feature vector"
            ) from None
        return self.matrix[row]

    def index_of(self) -> Dict[NodeId, int]:
        """Map node id -> row index."""
        return {node: i for i, node in enumerate(self.nodes)}


def build_feature_vectors(
    prober: Prober,
    landmarks: LandmarkSet,
    nodes: Optional[Sequence[NodeId]] = None,
) -> FeatureVectors:
    """Probe all landmarks from each node and assemble feature vectors.

    ``nodes`` defaults to every cache in the network (the origin's
    position is captured through its column in each vector: a landmark
    that *is* the origin contributes each cache's server distance).
    """
    if nodes is None:
        nodes = prober.network.cache_nodes
    nodes = list(nodes)
    if not nodes:
        raise LandmarkSelectionError("need at least one node to position")
    with phase_timer("features/probe"):
        matrix = prober.measure_rows(nodes, list(landmarks))
    with phase_timer("features/build"):
        return FeatureVectors(
            nodes=tuple(nodes), landmarks=landmarks, matrix=matrix
        )
