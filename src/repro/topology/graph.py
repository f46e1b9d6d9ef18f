"""Weighted router-graph model.

:class:`NetworkGraph` wraps a ``networkx.Graph`` whose vertices are
routers and whose edges carry one-way propagation latencies in
milliseconds (attribute ``latency_ms``).  Routers are tagged with a
:class:`RouterTier` and a domain label so placement logic can
distinguish transit backbones from stub access networks.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.errors import DisconnectedTopologyError, TopologyError
from repro.types import RouterId


class RouterTier(enum.Enum):
    """Which layer of the transit-stub hierarchy a router belongs to."""

    TRANSIT = "transit"
    STUB = "stub"


class NetworkGraph:
    """An undirected router graph with millisecond edge latencies.

    The class owns all mutation; once handed to
    :func:`repro.topology.distance.compute_rtt_matrix` or placement it
    should be treated as immutable.
    """

    LATENCY_KEY = "latency_ms"

    def __init__(self) -> None:
        self._graph = nx.Graph()

    # -- construction -------------------------------------------------

    def add_router(
        self,
        router: RouterId,
        tier: RouterTier,
        domain: str,
        position: Optional[Tuple[float, float]] = None,
    ) -> None:
        """Add a router vertex.

        ``domain`` is an opaque label like ``"T0"`` or ``"T0.S2"`` used
        for grouping; ``position`` is an optional 2-D coordinate used by
        Waxman-style edge models and plotting.
        """
        if router in self._graph:
            raise TopologyError(f"router {router} already exists")
        self._graph.add_node(router, tier=tier, domain=domain, position=position)

    def add_link(self, a: RouterId, b: RouterId, latency_ms: float) -> None:
        """Add an undirected link; parallel links keep the lower latency."""
        if a == b:
            raise TopologyError(f"self-loop on router {a}")
        if a not in self._graph or b not in self._graph:
            raise TopologyError(f"link endpoints must exist: ({a}, {b})")
        if latency_ms <= 0:
            raise TopologyError(
                f"link latency must be > 0 ms, got {latency_ms} for ({a}, {b})"
            )
        if self._graph.has_edge(a, b):
            existing = self._graph[a][b][self.LATENCY_KEY]
            if latency_ms < existing:
                self._graph[a][b][self.LATENCY_KEY] = latency_ms
            return
        self._graph.add_edge(a, b, **{self.LATENCY_KEY: latency_ms})

    # -- inspection ---------------------------------------------------

    @property
    def router_count(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def link_count(self) -> int:
        return self._graph.number_of_edges()

    def routers(self) -> Iterator[RouterId]:
        return iter(self._graph.nodes)

    def routers_in_tier(self, tier: RouterTier) -> List[RouterId]:
        """All routers of one tier, in insertion order."""
        return [
            r for r, data in self._graph.nodes(data=True) if data["tier"] is tier
        ]

    def tier_of(self, router: RouterId) -> RouterTier:
        try:
            return self._graph.nodes[router]["tier"]
        except KeyError:
            raise TopologyError(f"unknown router {router}") from None

    def domain_of(self, router: RouterId) -> str:
        try:
            return self._graph.nodes[router]["domain"]
        except KeyError:
            raise TopologyError(f"unknown router {router}") from None

    def domains(self) -> Dict[str, List[RouterId]]:
        """Map domain label -> routers, in insertion order."""
        out: Dict[str, List[RouterId]] = {}
        for router, data in self._graph.nodes(data=True):
            out.setdefault(data["domain"], []).append(router)
        return out

    def is_connected(self) -> bool:
        if self.router_count == 0:
            return False
        return nx.is_connected(self._graph)

    def require_connected(self) -> None:
        """Raise :class:`DisconnectedTopologyError` unless connected."""
        if not self.is_connected():
            raise DisconnectedTopologyError(
                f"topology with {self.router_count} routers and "
                f"{self.link_count} links is not connected"
            )

    # -- export -------------------------------------------------------

    def to_sparse_adjacency(self) -> Tuple["np.ndarray", "object", Dict[RouterId, int]]:
        """Return ``(index_array, csr_matrix, router->row map)``.

        Used by :mod:`repro.topology.distance` to run Dijkstra on the
        scipy CSR representation.  The index array maps row -> router id.
        """
        from scipy.sparse import csr_matrix

        routers = list(self._graph.nodes)
        index_of = {r: i for i, r in enumerate(routers)}
        n = len(routers)
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for a, b, data in self._graph.edges(data=True):
            latency = data[self.LATENCY_KEY]
            rows.append(index_of[a])
            cols.append(index_of[b])
            vals.append(latency)
            rows.append(index_of[b])
            cols.append(index_of[a])
            vals.append(latency)
        matrix = csr_matrix(
            (np.asarray(vals), (np.asarray(rows), np.asarray(cols))), shape=(n, n)
        )
        return np.asarray(routers), matrix, index_of

    def as_networkx(self) -> nx.Graph:
        """Expose the underlying networkx graph (read-only by convention)."""
        return self._graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkGraph(routers={self.router_count}, links={self.link_count})"
        )
