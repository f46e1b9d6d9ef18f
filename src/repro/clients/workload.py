"""Client-level request streams and client-perceived latency.

Each client issues its own Poisson request stream (same Zipf
shared/local interest mix as the cache-level generator, but the "local"
permutation is per *client*); redirection folds the streams into the
cache-level request log the simulator consumes, while remembering each
cache's client access-RTT profile.  After simulation,
:func:`client_perceived_latency` combines

    perceived = access RTT (client -> cache) + edge cache latency

weighted by each cache's counted request volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.clients.population import ClientPopulation
from repro.config import WorkloadConfig
from repro.errors import WorkloadError
from repro.simulator.runner import SimulationResult
from repro.types import NodeId
from repro.utils.rng import SeedLike, spawn_rng
from repro.utils.stats import OnlineStats
from repro.workload.documents import build_catalog
from repro.workload.ibm_synthetic import Workload
from repro.workload.trace import sorted_request_log
from repro.workload.zipf import ZipfSampler


@dataclass(frozen=True)
class ClientWorkload:
    """A cache-level workload plus per-cache client access-RTT stats."""

    workload: Workload
    #: per cache node: OnlineStats of the access RTTs of the requests
    #: that were folded into that cache's stream
    access_rtt: Dict[NodeId, OnlineStats] = field(repr=False)

    def mean_access_rtt(self, cache: NodeId) -> float:
        stats = self.access_rtt.get(cache)
        if stats is None or stats.count == 0:
            raise WorkloadError(f"no client requests reached cache {cache}")
        return stats.mean


def generate_client_workload(
    population: ClientPopulation,
    assignment: np.ndarray,
    config: Optional[WorkloadConfig] = None,
    requests_per_client: int = 30,
    seed: SeedLike = None,
) -> ClientWorkload:
    """Generate per-client streams and fold them into a cache workload."""
    config = config or WorkloadConfig()
    config.validate()
    if requests_per_client < 1:
        raise WorkloadError(
            f"requests_per_client must be >= 1, got {requests_per_client}"
        )
    assignment = np.asarray(assignment, dtype=int)
    if assignment.shape != (population.num_clients,):
        raise WorkloadError(
            f"assignment covers {assignment.shape}, population has "
            f"{population.num_clients} clients"
        )
    rng = spawn_rng(seed)
    catalog = build_catalog(config.documents, seed=rng)
    n_docs = config.documents.num_documents
    global_sampler = ZipfSampler(n_docs, config.zipf_alpha)

    time_columns = []
    doc_columns = []
    access_rtt: Dict[NodeId, OnlineStats] = {}
    for client in range(population.num_clients):
        cache = int(assignment[client])
        rtt = population.rtt_to_cache(client, cache)
        local_sampler = ZipfSampler(
            n_docs, config.zipf_alpha, permutation=rng.permutation(n_docs)
        )
        gaps = rng.exponential(
            config.mean_interarrival_ms, size=requests_per_client
        )
        times = np.cumsum(gaps)
        use_global = rng.random(requests_per_client) < config.shared_interest
        docs = np.where(
            use_global,
            global_sampler.sample(rng, size=requests_per_client),
            local_sampler.sample(rng, size=requests_per_client),
        )
        # The request reaches the cache after the one-way access trip.
        time_columns.append(times + rtt / 2.0)
        doc_columns.append(docs)
        access_rtt.setdefault(cache, OnlineStats()).add_many(
            [rtt] * requests_per_client
        )
    if not time_columns:
        raise WorkloadError("no client requests generated")
    requests = sorted_request_log(
        np.concatenate(time_columns),
        np.repeat(assignment, requests_per_client),
        np.concatenate(doc_columns),
    )

    from repro.workload.updates import generate_update_log

    horizon = float(requests.timestamps_ms[-1])
    updates = generate_update_log(catalog, config, horizon, rng)
    workload = Workload(catalog=catalog, requests=requests, updates=updates)
    return ClientWorkload(workload=workload, access_rtt=access_rtt)


def client_perceived_latency(
    result: SimulationResult,
    client_workload: ClientWorkload,
) -> float:
    """Request-weighted mean of (access RTT + edge cache latency).

    First-order composition: each cache contributes its mean access RTT
    plus its mean edge latency, weighted by its counted request volume.
    (Exact per-request composition would need request-to-client joins
    the simulator deliberately does not track.)
    """
    total_weight = 0
    total = 0.0
    for cache, access in client_workload.access_rtt.items():
        stats = result.metrics.cache_stats(cache)
        if stats.latency.count == 0:
            continue
        weight = stats.latency.count
        total += (stats.latency.mean + access.mean) * weight
        total_weight += weight
    if total_weight == 0:
        raise WorkloadError("no counted requests to aggregate")
    return total / total_weight
