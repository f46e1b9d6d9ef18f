"""The :class:`EdgeCacheNetwork` model — the object every other
subsystem consumes.

An ``EdgeCacheNetwork`` bundles the placed origin server and edge caches
with the true RTT matrix between them.  Group-formation schemes never
read the matrix directly (they learn distances by *probing*, see
:mod:`repro.probing`); the matrix is ground truth for the simulator and
for evaluation metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.config import TransitStubConfig
from repro.errors import TopologyError
from repro.topology.distance import DistanceMatrix, compute_rtt_matrix
from repro.topology.graph import NetworkGraph
from repro.topology.placement import Placement, place_network
from repro.topology.transit_stub import generate_transit_stub
from repro.types import ORIGIN_NODE_ID, NodeId
from repro.utils.rng import SeedLike, spawn_rng


@dataclass(frozen=True)
class EdgeCacheNetwork:
    """An origin server plus N edge caches with ground-truth RTTs.

    Node ids: origin server is :data:`repro.types.ORIGIN_NODE_ID` (0),
    caches are ``1..N``.  ``distances`` covers all ``N + 1`` nodes.
    """

    distances: DistanceMatrix
    placement: Optional[Placement] = None
    graph: Optional[NetworkGraph] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.distances.size < 2:
            raise TopologyError(
                "an edge cache network needs an origin and at least one cache"
            )
        if self.placement is not None:
            expected = self.placement.num_caches + 1
            if expected != self.distances.size:
                raise TopologyError(
                    f"placement covers {expected} nodes but distance matrix "
                    f"covers {self.distances.size}"
                )

    @property
    def num_caches(self) -> int:
        """N — the number of edge caches (origin excluded)."""
        return self.distances.size - 1

    @property
    def origin(self) -> NodeId:
        return ORIGIN_NODE_ID

    @property
    def cache_nodes(self) -> List[NodeId]:
        """Node ids of all edge caches, ``[1..N]``."""
        return list(range(1, self.distances.size))

    @property
    def all_nodes(self) -> List[NodeId]:
        """Origin followed by all caches."""
        return list(range(self.distances.size))

    def rtt(self, a: NodeId, b: NodeId) -> float:
        """Ground-truth RTT between two nodes (ms)."""
        return self.distances.rtt(a, b)

    def server_distance(self, cache: NodeId) -> float:
        """Ground-truth RTT between a cache and the origin server (ms)."""
        if cache == ORIGIN_NODE_ID:
            raise ValueError("the origin has no server distance")
        return self.distances.rtt(ORIGIN_NODE_ID, cache)

    def server_distances(self) -> np.ndarray:
        """RTTs from every cache to the origin, indexed by cache order.

        ``result[i]`` is the server distance of cache node ``i + 1``.
        """
        return self.distances.row(ORIGIN_NODE_ID)[1:].copy()

    def caches_nearest_origin(self, count: int) -> List[NodeId]:
        """The ``count`` cache nodes closest to the origin (by RTT)."""
        return self._caches_by_server_distance(count, farthest=False)

    def caches_farthest_origin(self, count: int) -> List[NodeId]:
        """The ``count`` cache nodes farthest from the origin (by RTT)."""
        return self._caches_by_server_distance(count, farthest=True)

    def _caches_by_server_distance(
        self, count: int, farthest: bool
    ) -> List[NodeId]:
        if not 1 <= count <= self.num_caches:
            raise ValueError(
                f"count must be in [1, {self.num_caches}], got {count}"
            )
        dists = self.server_distances()
        order = np.argsort(dists, kind="stable")
        if farthest:
            order = order[::-1]
        return [int(i) + 1 for i in order[:count]]


def build_network(
    num_caches: int,
    topology_config: Optional[TransitStubConfig] = None,
    seed: SeedLike = None,
) -> EdgeCacheNetwork:
    """One-call construction of a simulated edge cache network.

    Generates a transit-stub topology (auto-scaled so every cache gets
    its own stub router), places the origin and ``num_caches`` caches,
    and computes the ground-truth RTT matrix.

    This is the main entry point used by examples and experiments:

    >>> network = build_network(num_caches=50, seed=7)
    >>> network.num_caches
    50
    """
    rng = spawn_rng(seed)
    config = topology_config or TransitStubConfig()
    # Track the paper's placement density (~0.8 caches per stub router)
    # so caches share stub domains with nearby peers at every scale.
    config = config.sized_for_density(num_caches + 1)
    graph = generate_transit_stub(config, rng)
    placement = place_network(graph, num_caches, rng)
    distances = compute_rtt_matrix(graph, placement.node_routers)
    return EdgeCacheNetwork(distances=distances, placement=placement, graph=graph)


def network_from_matrix(rtt_ms: Sequence[Sequence[float]]) -> EdgeCacheNetwork:
    """Build a network directly from an explicit RTT matrix.

    Row/column 0 must be the origin server.  Used by unit tests and by
    the paper's Figure 1 worked example.
    """
    return EdgeCacheNetwork(distances=DistanceMatrix(np.asarray(rtt_ms, float)))
