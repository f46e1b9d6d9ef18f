"""Property-based tests for simulator invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    CacheConfig,
    DocumentConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.core.groups import groups_from_labels, GroupingResult
from repro.simulator import OriginUpdateEvent, simulate
from repro.simulator.cache import EdgeCache
from repro.simulator.events import columns_from_arrays
from repro.simulator.replacement import make_policy
from repro.topology import build_network
from repro.workload import UpdateLog, generate_workload

#: Event times: a few fixed values (-0.0 among them) force ties.
event_times = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, 2.5]),
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
)


class TestEventColumnsProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            min_size=0, max_size=60,
        ),
        st.lists(event_times, min_size=0, max_size=10),
    )
    def test_merged_order_non_decreasing(self, times, barrier_times):
        count = len(times)
        merged = columns_from_arrays(
            np.asarray(times, dtype=np.float64),
            np.ones(count, dtype=np.int64),
            np.arange(count, dtype=np.int64),
            UpdateLog(barrier_times, [0] * len(barrier_times)),
        )
        requests = merged.req_timestamps.tolist()
        assert requests == sorted(times)
        # Stable: requests tied on a timestamp keep their log order.
        docs = merged.req_docs.tolist()
        for a, b in zip(docs, docs[1:]):
            assert times[a] < times[b] or a < b
        # Each barrier runs after every earlier request and before every
        # request at or after its own timestamp.
        stream, lo = [], 0
        positions = merged.barrier_positions.tolist()
        for position, barrier_ts in zip(
            positions, merged.barrier_timestamps.tolist()
        ):
            stream += requests[lo:position] + [barrier_ts]
            lo = position
        stream += requests[lo:]
        assert stream == sorted(stream)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(event_times, st.integers(0, 9)), max_size=20
        ),
    )
    def test_barrier_order_is_the_sorted_push_order(self, updates):
        """The one stable sort gives the order
        ``sorted(pushed, key=timestamp_ms)`` gives the update objects."""
        log = UpdateLog(
            [t for t, _ in updates], [doc for _, doc in updates]
        )
        merged = columns_from_arrays(
            np.asarray([0.5]), np.ones(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64), log,
        )
        pushed = [OriginUpdateEvent(t, doc) for t, doc in updates]
        expected = sorted(pushed, key=lambda event: event.timestamp_ms)
        rebuilt = [
            OriginUpdateEvent(t, doc)
            for t, doc in zip(
                merged.barrier_timestamps.tolist(),
                merged.barrier_docs.tolist(),
            )
        ]
        assert rebuilt == expected
        assert [
            repr(event.timestamp_ms) for event in rebuilt
        ] == [repr(event.timestamp_ms) for event in expected]


class TestCacheProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(1, 50)),
            min_size=1, max_size=80,
        ),
        st.sampled_from(["utility", "lru", "lfu"]),
    )
    def test_capacity_never_exceeded(self, operations, policy_name):
        cache = EdgeCache(
            node=1, capacity_bytes=100, policy=make_policy(policy_name)
        )
        now = 0.0
        for doc, size in operations:
            now += 1.0
            if cache.holds(doc):
                cache.access(doc, now)
            else:
                cache.admit(doc, size, 1.0, now, version=0)
            assert 0 <= cache.used_bytes <= 100
            # Accounting matches the stored entries exactly.
            assert cache.used_bytes == sum(
                cache.entry(d).size_bytes for d in cache.stored_ids()
            )


@st.composite
def simulation_cases(draw):
    num_caches = draw(st.integers(2, 8))
    k = draw(st.integers(1, num_caches))
    seed = draw(st.integers(0, 10_000))
    return num_caches, k, seed


class TestSimulationProperties:
    @settings(max_examples=10, deadline=None)
    @given(simulation_cases())
    def test_conservation_and_bounds(self, case):
        num_caches, k, seed = case
        network = build_network(num_caches=num_caches, seed=seed)
        workload = generate_workload(
            network.cache_nodes,
            WorkloadConfig(
                documents=DocumentConfig(num_documents=30),
                requests_per_cache=25,
            ),
            seed=seed,
        )
        rng = np.random.default_rng(seed)
        labels = rng.integers(k, size=num_caches)
        grouping = GroupingResult(
            scheme="random",
            groups=groups_from_labels(network.cache_nodes, labels),
        )
        config = SimulationConfig(
            cache=CacheConfig(capacity_fraction=0.3),
            warmup_fraction=0.0,
        )
        result = simulate(network, grouping, workload, config=config)
        metrics = result.metrics
        # Conservation: every request is exactly one of the three types.
        assert metrics.conservation_holds()
        assert metrics.total_requests() == workload.num_requests
        # Latency bounds: at least local processing, finite.
        for cache in network.cache_nodes:
            stats = metrics.cache_stats(cache)
            if stats.latency.count:
                assert stats.latency.minimum >= config.cache.local_processing_ms
                assert np.isfinite(stats.latency.maximum)
        # Hit-rate decomposition sums to one.
        rates = metrics.hit_rates()
        assert sum(rates.values()) == pytest.approx(1.0)
