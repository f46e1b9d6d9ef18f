"""Per-cache request-log generation.

Each cache's request stream is a Poisson process over time whose
document choice mixes two Zipf samplers:

* with probability ``shared_interest`` — the *global* sampler, one
  popularity ranking shared by every cache (the paper's assumption of
  "considerable degree of similarity" between cache request patterns);
* otherwise — the cache's *local* sampler, the same Zipf law over a
  cache-specific permutation of the catalog (regional interest).

Raising ``shared_interest`` makes group caching more effective, which is
the lever behind the hit-rate side of the paper's size/latency
trade-off.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.config import WorkloadConfig
from repro.errors import WorkloadError
from repro.types import NodeId
from repro.workload.trace import RequestLog, sorted_request_log
from repro.workload.zipf import ZipfSampler


def generate_request_log(
    cache_nodes: Sequence[NodeId],
    config: WorkloadConfig,
    rng: np.random.Generator,
) -> RequestLog:
    """Generate a time-sorted request log across all ``cache_nodes``."""
    config.validate()
    cache_nodes = list(cache_nodes)
    if not cache_nodes:
        raise WorkloadError("need at least one cache to generate requests")

    n_docs = config.documents.num_documents
    global_sampler = ZipfSampler(n_docs, config.zipf_alpha)
    local_samplers = {
        cache: ZipfSampler(
            n_docs, config.zipf_alpha, permutation=rng.permutation(n_docs)
        )
        for cache in cache_nodes
    }

    per_cache = config.requests_per_cache
    time_columns: List[np.ndarray] = []
    cache_columns: List[np.ndarray] = []
    doc_columns: List[np.ndarray] = []
    for cache in cache_nodes:
        # Poisson arrivals: exponential inter-arrival times.
        gaps = rng.exponential(config.mean_interarrival_ms, size=per_cache)
        times = np.cumsum(gaps)
        use_global = rng.random(per_cache) < config.shared_interest
        global_docs = global_sampler.sample(rng, size=per_cache)
        local_docs = local_samplers[cache].sample(rng, size=per_cache)
        docs = np.where(use_global, global_docs, local_docs)
        if config.duration_ms is not None:
            # Each cache's stream stops at its first arrival past the
            # duration.
            late = np.flatnonzero(times > config.duration_ms)
            if late.size:
                times = times[: late[0]]
                docs = docs[: late[0]]
        time_columns.append(times)
        cache_columns.append(np.full(times.size, cache, dtype=np.int64))
        doc_columns.append(docs)
    return sorted_request_log(
        np.concatenate(time_columns),
        np.concatenate(cache_columns),
        np.concatenate(doc_columns),
    )
