"""Average group interaction cost (paper Section 2).

``ICost(Ec_i, Ec_j)`` is "the cost of transferring an average sized
document between edge caches Ec_i and Ec_j": one RTT plus the average
document's transfer time.  ``GICost(CGroup_l)`` averages that over all
member pairs, and the *average group interaction cost* of the network
averages over groups.  Lower is better; the paper uses it as the
clustering-accuracy measure throughout Figures 4–7.

Singleton groups have no pairs and contribute 0 interaction cost (they
also get no cooperation benefit, which the latency metric captures).
"""

from __future__ import annotations

from repro.core.groups import CacheGroup, GroupingResult
from repro.errors import SchemeError
from repro.topology.distance import pairwise_rtt
from repro.topology.network import EdgeCacheNetwork


def interaction_cost(
    network: EdgeCacheNetwork,
    a: int,
    b: int,
    avg_doc_transfer_ms: float = 0.0,
) -> float:
    """ICost between two caches: RTT plus average-document transfer."""
    _check_transfer(avg_doc_transfer_ms)
    return network.rtt(a, b) + avg_doc_transfer_ms


def _check_transfer(avg_doc_transfer_ms: float) -> None:
    if avg_doc_transfer_ms < 0:
        raise SchemeError(
            f"avg_doc_transfer_ms must be >= 0, got {avg_doc_transfer_ms}"
        )


def group_interaction_cost(
    network: EdgeCacheNetwork,
    group: CacheGroup,
    avg_doc_transfer_ms: float = 0.0,
) -> float:
    """GICost of one group: mean pairwise ICost (0 for singletons)."""
    if group.size < 2:
        return 0.0
    _check_transfer(avg_doc_transfer_ms)
    # Pair RTTs in itertools.combinations order, each plus the transfer
    # and summed left to right in Python like the per-pair definition.
    costs = [
        rtt + avg_doc_transfer_ms
        for rtt in pairwise_rtt(network.distances, group.members)
    ]
    return sum(costs) / len(costs)


def average_group_interaction_cost(
    network: EdgeCacheNetwork,
    grouping: GroupingResult,
    avg_doc_transfer_ms: float = 0.0,
    skip_singletons: bool = False,
) -> float:
    """Mean GICost over the groups of a grouping.

    ``skip_singletons`` drops size-1 groups from the average instead of
    counting them as zero — useful when comparing groupings whose K
    differ wildly, at the cost of diverging from the paper's literal
    definition (which averages over all groups).
    """
    groups = grouping.groups
    if skip_singletons:
        groups = tuple(g for g in groups if g.size >= 2)
        if not groups:
            return 0.0
    costs = [
        group_interaction_cost(network, g, avg_doc_transfer_ms)
        for g in groups
    ]
    return sum(costs) / len(costs)
