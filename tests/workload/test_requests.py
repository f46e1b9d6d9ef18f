"""Tests for request-log generation."""

import numpy as np
import pytest

from repro.config import DocumentConfig, WorkloadConfig
from repro.errors import WorkloadError
from repro.workload.requests import generate_request_log
from repro.workload.trace import RequestRecord
from repro.workload.zipf import ZipfSampler


def config(**overrides):
    defaults = dict(
        documents=DocumentConfig(num_documents=100),
        requests_per_cache=200,
        zipf_alpha=0.9,
        shared_interest=0.8,
        mean_interarrival_ms=100.0,
    )
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


class TestGenerateRequestLog:
    def test_time_sorted(self, rng):
        records = generate_request_log([1, 2, 3], config(), rng)
        times = [r.timestamp_ms for r in records]
        assert times == sorted(times)

    def test_per_cache_counts(self, rng):
        records = generate_request_log([1, 2], config(), rng)
        by_cache = {1: 0, 2: 0}
        for r in records:
            by_cache[r.cache_node] += 1
        assert by_cache == {1: 200, 2: 200}

    def test_docs_in_catalog(self, rng):
        records = generate_request_log([1], config(), rng)
        assert all(0 <= r.doc_id < 100 for r in records)

    def test_duration_truncates(self, rng):
        records = generate_request_log(
            [1], config(duration_ms=500.0), rng
        )
        assert all(r.timestamp_ms <= 500.0 for r in records)
        assert len(records) < 200

    def test_interarrival_scale(self, rng):
        records = generate_request_log([1], config(), rng)
        horizon = records[-1].timestamp_ms
        # 200 requests at ~100ms spacing -> ~20s horizon.
        assert horizon == pytest.approx(20_000, rel=0.4)

    def test_shared_interest_creates_overlap(self):
        """High shared_interest -> caches' hot sets overlap heavily."""

        def top_docs(shared, seed):
            records = generate_request_log(
                [1, 2],
                config(shared_interest=shared, requests_per_cache=1500),
                np.random.default_rng(seed),
            )
            tops = {}
            for cache in (1, 2):
                docs = [r.doc_id for r in records if r.cache_node == cache]
                values, counts = np.unique(docs, return_counts=True)
                tops[cache] = set(
                    values[np.argsort(counts)[::-1]][:15].tolist()
                )
            return len(tops[1] & tops[2])

        shared_overlap = np.mean([top_docs(0.95, s) for s in range(3)])
        disjoint_overlap = np.mean([top_docs(0.0, s) for s in range(3)])
        assert shared_overlap > disjoint_overlap + 3

    def test_zipf_popularity(self, rng):
        records = generate_request_log(
            [1], config(requests_per_cache=5000, shared_interest=1.0), rng
        )
        docs = np.array([r.doc_id for r in records])
        # Top document attracts far more than the uniform share.
        top_share = max(np.bincount(docs)) / docs.size
        assert top_share > 3 / 100

    def test_empty_caches_rejected(self, rng):
        with pytest.raises(WorkloadError):
            generate_request_log([], config(), rng)

    def test_reproducible(self):
        a = generate_request_log([1, 2], config(), np.random.default_rng(5))
        b = generate_request_log([1, 2], config(), np.random.default_rng(5))
        assert a == b


def loop_request_log(cache_nodes, config, rng):
    """The per-record reference: draw in cache order, then ``sort()``."""
    n_docs = config.documents.num_documents
    global_sampler = ZipfSampler(n_docs, config.zipf_alpha)
    local_samplers = {
        cache: ZipfSampler(
            n_docs, config.zipf_alpha, permutation=rng.permutation(n_docs)
        )
        for cache in cache_nodes
    }
    records = []
    per_cache = config.requests_per_cache
    for cache in cache_nodes:
        gaps = rng.exponential(config.mean_interarrival_ms, size=per_cache)
        times = np.cumsum(gaps)
        use_global = rng.random(per_cache) < config.shared_interest
        global_docs = global_sampler.sample(rng, size=per_cache)
        local_docs = local_samplers[cache].sample(rng, size=per_cache)
        docs = np.where(use_global, global_docs, local_docs)
        for t, doc in zip(times, docs):
            if config.duration_ms is not None and t > config.duration_ms:
                break
            records.append(
                RequestRecord(
                    timestamp_ms=float(t), cache_node=cache, doc_id=int(doc)
                )
            )
    records.sort()
    return records


class TestColumnarSortMatchesRecordSort:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("duration_ms", [None, 3_000.0])
    def test_same_records_in_the_same_order(self, seed, duration_ms):
        nodes = [1, 2, 3, 5, 8]
        cfg = config(requests_per_cache=60, duration_ms=duration_ms)
        out = generate_request_log(nodes, cfg, np.random.default_rng(seed))
        expected = loop_request_log(nodes, cfg, np.random.default_rng(seed))
        assert out == expected
        assert all(
            type(r.timestamp_ms) is float
            and type(r.cache_node) is int
            and type(r.doc_id) is int
            for r in out
        )
        if duration_ms is not None:
            assert len(out) < 60 * len(nodes)
