"""All-pairs RTT computation and the :class:`DistanceMatrix` type.

The paper measures network distance as round-trip time between nodes.
On a simulated topology the *true* RTT between two placed nodes is twice
the one-way shortest-path propagation latency between their routers.
:func:`compute_rtt_matrix` runs multi-source Dijkstra over the router
graph (scipy CSR) restricted to the placed routers, which keeps the cost
at ``O(P * E log V)`` for ``P`` placed nodes instead of a full
all-routers solve.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
from scipy.sparse.csgraph import dijkstra

from repro.errors import DisconnectedTopologyError, TopologyError
from repro.topology.graph import NetworkGraph
from repro.types import NodeId, RouterId


class DistanceMatrix:
    """Symmetric RTT matrix over the nodes of an edge cache network.

    Row/column ``i`` corresponds to node id ``i`` (origin server is node
    0 by convention; see :mod:`repro.types`).  Values are milliseconds.
    """

    def __init__(self, rtt_ms: np.ndarray) -> None:
        rtt_ms = np.asarray(rtt_ms, dtype=float)
        if rtt_ms.ndim != 2 or rtt_ms.shape[0] != rtt_ms.shape[1]:
            raise TopologyError(
                f"distance matrix must be square, got shape {rtt_ms.shape}"
            )
        if not np.all(np.isfinite(rtt_ms)):
            raise DisconnectedTopologyError(
                "distance matrix contains non-finite entries "
                "(disconnected node pair)"
            )
        if np.any(rtt_ms < 0):
            raise TopologyError("distance matrix contains negative entries")
        if np.any(np.abs(np.diagonal(rtt_ms)) > 1e-9):
            raise TopologyError("distance matrix diagonal must be zero")
        if not np.allclose(rtt_ms, rtt_ms.T, atol=1e-9):
            raise TopologyError("distance matrix must be symmetric")
        self._rtt = rtt_ms
        self._rtt.setflags(write=False)

    @property
    def size(self) -> int:
        """Number of nodes covered by the matrix."""
        return self._rtt.shape[0]

    def rtt(self, a: NodeId, b: NodeId) -> float:
        """RTT between nodes ``a`` and ``b`` in milliseconds."""
        self._check(a)
        self._check(b)
        return float(self._rtt[a, b])

    def one_way(self, a: NodeId, b: NodeId) -> float:
        """One-way latency (half the RTT)."""
        return self.rtt(a, b) / 2.0

    def row(self, node: NodeId) -> np.ndarray:
        """Read-only RTT row for one node."""
        self._check(node)
        return self._rtt[node]

    def submatrix(self, nodes: Sequence[NodeId]) -> np.ndarray:
        """Dense RTT submatrix over ``nodes`` (copy)."""
        idx = np.asarray(list(nodes), dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= self.size):
            raise TopologyError(f"node ids out of range: {nodes!r}")
        return self._rtt[np.ix_(idx, idx)].copy()

    def as_array(self) -> np.ndarray:
        """The full read-only RTT matrix."""
        return self._rtt

    def _check(self, node: NodeId) -> None:
        if not 0 <= node < self.size:
            raise TopologyError(
                f"node id {node} out of range [0, {self.size})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DistanceMatrix(size={self.size})"


def compute_rtt_matrix(
    graph: NetworkGraph,
    placed_routers: Sequence[RouterId],
) -> DistanceMatrix:
    """RTT matrix between placed nodes via shortest paths on ``graph``.

    ``placed_routers[i]`` is the router hosting node ``i``; two nodes on
    the same router have RTT 0.  Raises
    :class:`repro.errors.DisconnectedTopologyError` if any pair is
    unreachable.
    """
    if len(placed_routers) == 0:
        raise TopologyError("placed_routers must be non-empty")
    router_ids, adjacency, index_of = graph.to_sparse_adjacency()
    del router_ids  # order is captured by index_of
    try:
        source_indices = [index_of[r] for r in placed_routers]
    except KeyError as exc:
        raise TopologyError(f"placed router {exc} not in topology") from exc

    one_way = dijkstra(adjacency, directed=False, indices=source_indices)
    placed_cols = np.asarray(source_indices, dtype=int)
    rtt = 2.0 * one_way[:, placed_cols]
    # Symmetrise away float drift from independent Dijkstra runs.
    rtt = (rtt + rtt.T) / 2.0
    np.fill_diagonal(rtt, 0.0)
    return DistanceMatrix(rtt)


def pairwise_rtt(
    matrix: DistanceMatrix, nodes: Sequence[NodeId]
) -> List[float]:
    """All unordered-pair RTTs among ``nodes`` (used by GICost).

    Vectorised: one fancy-indexed submatrix gather plus
    ``np.triu_indices`` replaces the previous nested Python loop, whose
    row-major ``(i, j > i)`` pair order this preserves exactly.
    """
    idx = np.asarray(list(nodes), dtype=int)
    if idx.size < 2:
        return []
    bad = np.flatnonzero((idx < 0) | (idx >= matrix.size))
    if bad.size:
        # The error :meth:`DistanceMatrix.rtt` raises for the first one.
        matrix._check(int(idx[bad[0]]))
    iu, ju = np.triu_indices(idx.size, k=1)
    return matrix.as_array()[idx[iu], idx[ju]].tolist()
