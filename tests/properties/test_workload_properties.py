"""Property-based tests for workload generation and trace IO."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DocumentConfig, WorkloadConfig
from repro.workload import (
    RequestRecord,
    UpdateRecord,
    ZipfSampler,
    generate_workload,
    read_request_log,
    read_update_log,
    write_request_log,
    write_update_log,
)


class TestZipfProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 500), st.floats(0.1, 2.5))
    def test_distribution_valid(self, n, alpha):
        s = ZipfSampler(n, alpha)
        probs = [s.probability_of_rank(r) for r in range(n)]
        assert sum(probs) == pytest.approx(1.0)
        assert all(p > 0 for p in probs)
        # Monotone decreasing in rank.
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 100), st.floats(0.1, 2.0), st.integers(0, 2**31 - 1)
    )
    def test_samples_in_range(self, n, alpha, seed):
        s = ZipfSampler(n, alpha)
        draws = s.sample(np.random.default_rng(seed), size=50)
        assert (draws >= 0).all() and (draws < n).all()


@st.composite
def request_logs(draw):
    count = draw(st.integers(0, 40))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0, max_value=1e8, allow_nan=False),
                min_size=count, max_size=count,
            )
        )
    )
    return [
        RequestRecord(
            timestamp_ms=t,
            cache_node=draw(st.integers(1, 50)),
            doc_id=draw(st.integers(0, 1000)),
        )
        for t in times
    ]


@st.composite
def update_logs(draw):
    count = draw(st.integers(0, 40))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0, max_value=1e8, allow_nan=False),
                min_size=count, max_size=count,
            )
        )
    )
    return [
        UpdateRecord(timestamp_ms=t, doc_id=draw(st.integers(0, 1000)))
        for t in times
    ]


class TestTraceRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(request_logs())
    def test_request_log_roundtrip(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("trace") / "req.log"
        write_request_log(records, path)
        assert read_request_log(path) == records

    @settings(max_examples=30, deadline=None)
    @given(update_logs())
    def test_update_log_roundtrip(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("trace") / "upd.log"
        write_update_log(records, path)
        assert read_update_log(path) == records


class TestWorkloadProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(5, 40),
        st.integers(0, 2**31 - 1),
    )
    def test_generated_workload_consistent(self, caches, requests, seed):
        config = WorkloadConfig(
            documents=DocumentConfig(num_documents=30),
            requests_per_cache=requests,
        )
        cache_nodes = list(range(1, caches + 1))
        w = generate_workload(cache_nodes, config, seed=seed)
        assert w.num_requests == caches * requests
        times = [r.timestamp_ms for r in w.requests]
        assert times == sorted(times)
        assert all(0 <= r.doc_id < 30 for r in w.requests)
        assert {r.cache_node for r in w.requests} == set(cache_nodes)
        dynamic = set(w.catalog.dynamic_ids())
        assert all(u.doc_id in dynamic for u in w.updates)
