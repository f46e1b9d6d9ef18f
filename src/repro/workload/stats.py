"""Workload/trace statistics.

Summaries the evaluation cares about: how Zipf-like the popularity
distribution actually is, how similar the caches' request patterns are
(the paper *assumes* "considerable degree of similarity" — this module
measures it), and per-cache volumes.  Every function takes a
:class:`~repro.workload.trace.RequestLog` or a record sequence and
reads columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.errors import WorkloadError
from repro.types import DocumentId, ms_to_s
from repro.workload.trace import Requests, as_request_log


@dataclass(frozen=True)
class TraceStats:
    """Summary of one request log."""

    num_requests: int
    num_caches: int
    num_distinct_docs: int
    duration_ms: float
    top_doc_share: float
    zipf_alpha_estimate: float
    mean_pairwise_overlap: float

    def __str__(self) -> str:
        return (
            f"requests={self.num_requests} caches={self.num_caches} "
            f"docs={self.num_distinct_docs} "
            f"duration={ms_to_s(self.duration_ms):.1f}s "
            f"top-doc={self.top_doc_share:.1%} "
            f"zipf-alpha~{self.zipf_alpha_estimate:.2f} "
            f"overlap={self.mean_pairwise_overlap:.2f}"
        )


def popularity_counts(requests: Requests) -> Dict[DocumentId, int]:
    """Request count per document."""
    docs, counts = np.unique(
        as_request_log(requests).doc_ids, return_counts=True
    )
    return dict(zip(docs.tolist(), counts.tolist()))


def estimate_zipf_alpha(counts: Dict[DocumentId, int]) -> float:
    """Least-squares slope of log(count) vs log(rank).

    A crude but standard estimator: fit ``log c_r = -alpha log r + b``
    over the documents with at least 2 requests (singletons are rank
    noise).
    """
    values = sorted(counts.values(), reverse=True)
    values = [v for v in values if v >= 2]
    if len(values) < 3:
        raise WorkloadError(
            "need at least 3 documents with >=2 requests to fit alpha"
        )
    ranks = np.arange(1, len(values) + 1, dtype=float)
    slope, _intercept = np.polyfit(np.log(ranks), np.log(values), 1)
    return float(-slope)


def top_document_overlap(requests: Requests, top: int = 20) -> float:
    """Mean pairwise Jaccard overlap of the caches' top-N document sets.

    This quantifies the paper's similarity assumption: 1.0 means every
    cache's hot set is identical, 0.0 means fully disjoint interests.
    """
    if top < 1:
        raise WorkloadError(f"top must be >= 1, got {top}")
    log = as_request_log(requests)
    caches = np.unique(log.cache_nodes)
    if caches.size < 2:
        raise WorkloadError("need >= 2 caches to measure overlap")
    top_sets = []
    for cache in caches:
        docs, counts = np.unique(
            log.doc_ids[log.cache_nodes == cache], return_counts=True
        )
        # Most requested first, ties by ascending doc id.
        ranked = docs[np.argsort(-counts, kind="stable")]
        top_sets.append(set(ranked[:top].tolist()))
    overlaps = []
    for i, a in enumerate(top_sets):
        for b in top_sets[i + 1:]:
            union = a | b
            overlaps.append(len(a & b) / len(union) if union else 0.0)
    return float(np.mean(overlaps))


def summarize_trace(requests: Requests) -> TraceStats:
    """Full :class:`TraceStats` for a request log."""
    log = as_request_log(requests)
    if not log:
        raise WorkloadError("cannot summarize an empty request log")
    counts = popularity_counts(log)
    total = len(log)
    num_caches = np.unique(log.cache_nodes).size
    return TraceStats(
        num_requests=total,
        num_caches=num_caches,
        num_distinct_docs=len(counts),
        duration_ms=float(log.timestamps_ms.max()),
        top_doc_share=max(counts.values()) / total,
        zipf_alpha_estimate=estimate_zipf_alpha(counts),
        mean_pairwise_overlap=(
            top_document_overlap(log) if num_caches >= 2 else 1.0
        ),
    )
