"""Tests for trace statistics."""

import numpy as np
import pytest

from repro.config import DocumentConfig, WorkloadConfig
from repro.errors import WorkloadError
from repro.workload import generate_workload
from repro.workload.stats import (
    TraceStats,
    estimate_zipf_alpha,
    popularity_counts,
    summarize_trace,
    top_document_overlap,
)
from repro.workload.trace import RequestRecord


def request(t, cache, doc):
    return RequestRecord(timestamp_ms=t, cache_node=cache, doc_id=doc)


class TestPopularityCounts:
    def test_counts(self):
        requests = [request(0, 1, 5), request(1, 1, 5), request(2, 2, 7)]
        assert popularity_counts(requests) == {5: 2, 7: 1}


class TestEstimateZipfAlpha:
    def test_recovers_generator_alpha(self):
        """The estimator lands near the alpha the sampler used."""
        config = WorkloadConfig(
            documents=DocumentConfig(num_documents=300),
            requests_per_cache=4000,
            zipf_alpha=0.9,
            shared_interest=1.0,
        )
        workload = generate_workload([1], config, seed=5)
        counts = popularity_counts(workload.requests)
        alpha = estimate_zipf_alpha(counts)
        assert alpha == pytest.approx(0.9, abs=0.25)

    def test_uniform_traffic_low_alpha(self):
        requests = [
            request(float(i), 1, i % 50) for i in range(500)
        ]
        counts = popularity_counts(requests)
        assert estimate_zipf_alpha(counts) == pytest.approx(0.0, abs=0.1)

    def test_too_few_documents_rejected(self):
        with pytest.raises(WorkloadError):
            estimate_zipf_alpha({1: 5, 2: 3})


class TestTopDocumentOverlap:
    def test_identical_interests_full_overlap(self):
        requests = []
        for cache in (1, 2):
            for i, doc in enumerate((4, 4, 4, 7, 7, 9)):
                requests.append(request(float(i), cache, doc))
        assert top_document_overlap(requests, top=3) == 1.0

    def test_disjoint_interests_zero_overlap(self):
        requests = [request(0, 1, 1), request(1, 1, 2),
                    request(2, 2, 8), request(3, 2, 9)]
        assert top_document_overlap(requests, top=2) == 0.0

    def test_shared_interest_raises_overlap(self):
        def overlap_at(shared):
            config = WorkloadConfig(
                documents=DocumentConfig(num_documents=200),
                requests_per_cache=600,
                shared_interest=shared,
            )
            workload = generate_workload([1, 2, 3], config, seed=9)
            return top_document_overlap(workload.requests)

        assert overlap_at(0.9) > overlap_at(0.1)

    def test_single_cache_rejected(self):
        with pytest.raises(WorkloadError):
            top_document_overlap([request(0, 1, 1)])

    def test_bad_top_rejected(self):
        with pytest.raises(WorkloadError):
            top_document_overlap([request(0, 1, 1)], top=0)


class TestSummarizeTrace:
    def test_fields(self):
        workload = generate_workload(
            [1, 2],
            WorkloadConfig(
                documents=DocumentConfig(num_documents=100),
                requests_per_cache=500,
            ),
            seed=3,
        )
        stats = summarize_trace(workload.requests)
        assert stats.num_requests == 1000
        assert stats.num_caches == 2
        assert 0 < stats.num_distinct_docs <= 100
        assert stats.duration_ms > 0
        assert 0 < stats.top_doc_share < 1
        assert 0 <= stats.mean_pairwise_overlap <= 1
        assert "zipf-alpha" in str(stats)

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            summarize_trace([])


def record_path_stats(records):
    """The per-record reference: dict counting over RequestRecords."""
    counts, by_cache = {}, {}
    for r in records:
        counts[r.doc_id] = counts.get(r.doc_id, 0) + 1
        per = by_cache.setdefault(r.cache_node, {})
        per[r.doc_id] = per.get(r.doc_id, 0) + 1
    top_sets = {
        cache: set(sorted(c, key=lambda d: (-c[d], d))[:20])
        for cache, c in by_cache.items()
    }
    caches = sorted(top_sets)
    overlaps = [
        len(top_sets[a] & top_sets[b]) / len(top_sets[a] | top_sets[b])
        for i, a in enumerate(caches)
        for b in caches[i + 1:]
    ]
    return counts, TraceStats(
        num_requests=len(records),
        num_caches=len(by_cache),
        num_distinct_docs=len(counts),
        duration_ms=max(r.timestamp_ms for r in records),
        top_doc_share=max(counts.values()) / len(records),
        zipf_alpha_estimate=estimate_zipf_alpha(counts),
        mean_pairwise_overlap=(
            float(np.mean(overlaps)) if len(caches) >= 2 else 1.0
        ),
    )


class TestColumnsMatchRecordPath:
    @pytest.mark.parametrize(
        "caches, seed",
        [((1,), 0), ((1, 2), 1), ((1, 2, 3), 2), ((2, 5, 7, 9), 3)],
    )
    def test_equal_trace_stats(self, caches, seed):
        workload = generate_workload(
            caches,
            WorkloadConfig(
                documents=DocumentConfig(num_documents=150),
                requests_per_cache=400,
                shared_interest=0.5,
            ),
            seed=seed,
        )
        records = list(workload.requests)
        counts, expected = record_path_stats(records)
        assert popularity_counts(workload.requests) == counts
        assert summarize_trace(workload.requests) == expected
        assert summarize_trace(records) == expected
