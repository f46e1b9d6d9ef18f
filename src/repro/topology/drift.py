"""Topology dynamics: RTT drift over time.

Internet path latencies drift (routing changes, congestion shifts), so
a grouping formed at time T0 slowly stops matching reality.  This
module produces *drifted* versions of a network: each link's latency is
perturbed multiplicatively and the node RTT matrix recomputed via
shortest paths — which keeps the result a true path metric (triangle
inequality intact), unlike perturbing the RTT matrix directly.

The churn/drift experiments use a sequence of progressively drifted
networks to measure how fast grouping quality decays and when
re-clustering pays.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TopologyError
from repro.topology.distance import compute_rtt_matrix
from repro.topology.graph import NetworkGraph
from repro.topology.network import EdgeCacheNetwork
from repro.utils.rng import SeedLike, spawn_rng


def drift_network(
    network: EdgeCacheNetwork,
    scale: float = 0.1,
    seed: SeedLike = None,
) -> EdgeCacheNetwork:
    """One drift step: link latencies jitter by ``±scale`` (lognormal).

    Requires the topology graph (``network.graph``); networks loaded
    from bare distance matrices cannot drift.  Each link's latency is
    multiplied by ``exp(N(0, scale))``, so repeated application
    compounds into a random walk in log space.  Returns a new network
    over the *same placement* with a freshly computed RTT matrix.
    """
    if network.graph is None or network.placement is None:
        raise TopologyError(
            "drift needs the topology graph; this network carries only "
            "a distance matrix"
        )
    if scale < 0:
        raise TopologyError(f"scale must be >= 0, got {scale}")
    rng = spawn_rng(seed)

    old = network.graph
    drifted = NetworkGraph()
    for router in old.routers():
        drifted.add_router(
            router,
            old.tier_of(router),
            old.domain_of(router),
            position=old.position_of(router),
        )
    for a, b, latency_ms in old.links():
        factor = float(np.exp(rng.normal(0.0, scale))) if scale else 1.0
        drifted.add_link(a, b, latency_ms * factor)

    distances = compute_rtt_matrix(
        drifted, network.placement.node_routers
    )
    return EdgeCacheNetwork(
        distances=distances, placement=network.placement, graph=drifted
    )


def drift_series(
    network: EdgeCacheNetwork,
    steps: int,
    scale: float = 0.1,
    seed: SeedLike = None,
):
    """Yield ``steps`` progressively drifted networks (a random walk).

    The first yielded network is one drift step away from the input.
    """
    if steps < 1:
        raise TopologyError(f"steps must be >= 1, got {steps}")
    rng = spawn_rng(seed)
    current = network
    for _ in range(steps):
        current = drift_network(current, scale=scale, seed=rng)
        yield current


def mean_relative_rtt_change(
    before: EdgeCacheNetwork, after: EdgeCacheNetwork
) -> float:
    """Mean |ΔRTT| / RTT over all node pairs (drift magnitude measure)."""
    a = before.distances.as_array()
    b = after.distances.as_array()
    if a.shape != b.shape:
        raise TopologyError(
            f"networks have different sizes: {a.shape} vs {b.shape}"
        )
    iu, ju = np.triu_indices(a.shape[0], k=1)
    base = a[iu, ju]
    if not base.size:
        raise TopologyError("need at least one node pair")
    return float(np.mean(np.abs(b[iu, ju] - base) / base))
