"""Pinning the origin server and edge caches to topology routers.

The paper assumes "the scale of the edge cache network, and the
locations of the edge caches and the server in the Internet are
pre-decided"; placement is therefore a substrate decision.  We model the
common CDN deployment: the origin sits on (or next to) a backbone
transit router, and edge caches sit on distinct stub routers spread
across access networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError, PlacementError
from repro.topology.graph import NetworkGraph, RouterTier
from repro.types import RouterId


@dataclass(frozen=True)
class Placement:
    """Result of placing the edge cache network on a topology.

    ``node_routers[i]`` is the router hosting node ``i`` of the edge
    cache network; node 0 is the origin server, nodes ``1..N`` are the
    edge caches (paper ids ``Ec_0 .. Ec_{N-1}``).
    """

    origin_router: RouterId
    cache_routers: Tuple[RouterId, ...]

    @property
    def num_caches(self) -> int:
        return len(self.cache_routers)

    @property
    def node_routers(self) -> List[RouterId]:
        """Router per network node, indexed by node id."""
        return [self.origin_router, *self.cache_routers]


def place_network(
    graph: NetworkGraph,
    num_caches: int,
    rng: np.random.Generator,
) -> Placement:
    """Place one origin server and ``num_caches`` edge caches.

    The origin goes on a uniformly random transit router (stub router if
    no transit tier exists).  Caches go on distinct stub routers; if
    caches outnumber stub routers, :class:`repro.errors.PlacementError`
    is raised.
    """
    if num_caches < 1:
        raise ConfigurationError("num_caches must be >= 1")
    transit = graph.routers_in_tier(RouterTier.TRANSIT)
    stubs = graph.routers_in_tier(RouterTier.STUB)

    if transit:
        origin = int(transit[int(rng.integers(len(transit)))])
    elif stubs:
        origin = int(stubs[int(rng.integers(len(stubs)))])
    else:
        raise PlacementError("topology has no routers to place the origin on")

    candidates = [r for r in stubs if r != origin]
    if not candidates:
        candidates = [r for r in graph.routers() if r != origin]
    if not candidates:
        raise PlacementError("topology has no routers left for caches")

    if num_caches > len(candidates):
        raise PlacementError(
            f"cannot place {num_caches} caches on {len(candidates)} "
            f"distinct stub routers (grow the topology)"
        )
    chosen = rng.choice(len(candidates), size=num_caches, replace=False)
    cache_routers = tuple(int(candidates[int(i)]) for i in chosen)
    return Placement(origin_router=origin, cache_routers=cache_routers)
