"""Weighted router-graph model.

:class:`NetworkGraph` is an undirected router graph held in two
insertion-ordered dicts: router -> ``(tier, domain, position)`` and
router -> ``{neighbour: latency_ms}``, where a link's latency is its
one-way propagation delay in milliseconds.  Routers are tagged with a
:class:`RouterTier` and a domain label so placement logic can
distinguish transit backbones from stub access networks.  Shortest
paths are not computed here: :mod:`repro.topology.distance` runs
scipy's Dijkstra over :meth:`NetworkGraph.to_sparse_adjacency`.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.errors import DisconnectedTopologyError, TopologyError
from repro.types import RouterId

Position = Optional[Tuple[float, float]]


class RouterTier(enum.Enum):
    """Which layer of the transit-stub hierarchy a router belongs to."""

    TRANSIT = "transit"
    STUB = "stub"


class NetworkGraph:
    """An undirected router graph with millisecond link latencies.

    The class owns all mutation; once handed to
    :func:`repro.topology.distance.compute_rtt_matrix` or placement it
    should be treated as immutable.
    """

    def __init__(self) -> None:
        self._routers: Dict[RouterId, Tuple[RouterTier, str, Position]] = {}
        # Each link is stored in both endpoints' neighbour dicts.
        self._adjacency: Dict[RouterId, Dict[RouterId, float]] = {}
        self._link_count = 0

    # -- construction -------------------------------------------------

    def add_router(
        self,
        router: RouterId,
        tier: RouterTier,
        domain: str,
        position: Position = None,
    ) -> None:
        """Add a router vertex.

        ``domain`` is an opaque label like ``"T0"`` or ``"T0.S2"`` used
        for grouping; ``position`` is an optional 2-D coordinate used by
        Waxman-style edge models and plotting.
        """
        if router in self._routers:
            raise TopologyError(f"router {router} already exists")
        self._routers[router] = (tier, domain, position)
        self._adjacency[router] = {}

    def add_link(self, a: RouterId, b: RouterId, latency_ms: float) -> None:
        """Add an undirected link; parallel links keep the lower latency."""
        if a == b:
            raise TopologyError(f"self-loop on router {a}")
        if a not in self._routers or b not in self._routers:
            raise TopologyError(f"link endpoints must exist: ({a}, {b})")
        if latency_ms <= 0:
            raise TopologyError(
                f"link latency must be > 0 ms, got {latency_ms} for ({a}, {b})"
            )
        existing = self._adjacency[a].get(b)
        if existing is None:
            self._link_count += 1
        elif latency_ms >= existing:
            return
        self._adjacency[a][b] = latency_ms
        self._adjacency[b][a] = latency_ms

    # -- inspection ---------------------------------------------------

    @property
    def router_count(self) -> int:
        return len(self._routers)

    @property
    def link_count(self) -> int:
        return self._link_count

    def routers(self) -> Iterator[RouterId]:
        return iter(self._routers)

    def routers_in_tier(self, tier: RouterTier) -> List[RouterId]:
        """All routers of one tier, in insertion order."""
        return [r for r, data in self._routers.items() if data[0] is tier]

    def _data(self, router: RouterId) -> Tuple[RouterTier, str, Position]:
        try:
            return self._routers[router]
        except KeyError:
            raise TopologyError(f"unknown router {router}") from None

    def tier_of(self, router: RouterId) -> RouterTier:
        return self._data(router)[0]

    def domain_of(self, router: RouterId) -> str:
        return self._data(router)[1]

    def position_of(self, router: RouterId) -> Position:
        return self._data(router)[2]

    def domains(self) -> Dict[str, List[RouterId]]:
        """Map domain label -> routers, in insertion order."""
        out: Dict[str, List[RouterId]] = {}
        for router, data in self._routers.items():
            out.setdefault(data[1], []).append(router)
        return out

    def links(self) -> Iterator[Tuple[RouterId, RouterId, float]]:
        """Each link once as ``(a, b, latency_ms)``.

        Routers in insertion order, each with its neighbours in
        insertion order, skipping neighbours already visited: the order
        ``networkx.Graph.edges()`` gives, which fixes the order of the
        per-link RNG draws in :mod:`repro.topology.drift`.
        """
        visited: Set[RouterId] = set()
        for a, neighbours in self._adjacency.items():
            for b, latency_ms in neighbours.items():
                if b not in visited:
                    yield a, b, latency_ms
            visited.add(a)

    def is_connected(self) -> bool:
        if not self._routers:
            return False
        start = next(iter(self._adjacency))
        reached = {start}
        queue = [start]
        # Breadth-first: the loop also visits the routers it appends.
        for router in queue:
            for neighbour in self._adjacency[router]:
                if neighbour not in reached:
                    reached.add(neighbour)
                    queue.append(neighbour)
        return len(reached) == len(self._routers)

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

        routers = list(self._routers)
        index_of = {r: i for i, r in enumerate(routers)}
        n = len(routers)
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for a, b, latency in self.links():
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkGraph(routers={self.router_count}, links={self.link_count})"
        )
