"""Tests for the replacement policies."""

import pytest

from repro.errors import SimulationError
from repro.simulator import LFUPolicy, LRUPolicy, UtilityPolicy, make_policy


class TestLRU:
    def test_evicts_least_recent(self):
        p = LRUPolicy()
        p.on_insert(1, 10, 1.0, now_ms=0.0)
        p.on_insert(2, 10, 1.0, now_ms=1.0)
        p.on_access(1, now_ms=2.0)
        assert p.select_victim() == 2

    def test_insert_order_without_access(self):
        p = LRUPolicy()
        for doc in (1, 2, 3):
            p.on_insert(doc, 10, 1.0, now_ms=float(doc))
        assert p.select_victim() == 1

    def test_remove(self):
        p = LRUPolicy()
        p.on_insert(1, 10, 1.0, 0.0)
        p.on_insert(2, 10, 1.0, 1.0)
        p.on_remove(1, invalidated=False)
        assert p.select_victim() == 2

    def test_double_insert_rejected(self):
        p = LRUPolicy()
        p.on_insert(1, 10, 1.0, 0.0)
        with pytest.raises(SimulationError):
            p.on_insert(1, 10, 1.0, 1.0)

    def test_untracked_access_rejected(self):
        with pytest.raises(SimulationError):
            LRUPolicy().on_access(1, 0.0)

    def test_empty_victim_rejected(self):
        with pytest.raises(SimulationError):
            LRUPolicy().select_victim()


class TestLFU:
    def test_evicts_least_frequent(self):
        p = LFUPolicy()
        p.on_insert(1, 10, 1.0, 0.0)
        p.on_insert(2, 10, 1.0, 0.0)
        p.on_access(1, 1.0)
        p.on_access(1, 2.0)
        p.on_access(2, 3.0)
        assert p.select_victim() == 2

    def test_remove_clears_tracking(self):
        p = LFUPolicy()
        p.on_insert(1, 10, 1.0, 0.0)
        p.on_insert(2, 10, 1.0, 0.0)
        p.on_access(2, 1.0)
        p.on_remove(1, invalidated=False)
        assert p.select_victim() == 2

    def test_stale_heap_entries_skipped(self):
        p = LFUPolicy()
        p.on_insert(1, 10, 1.0, 0.0)
        p.on_insert(2, 10, 1.0, 0.0)
        # Bump doc 1 many times, leaving stale low-count entries.
        for i in range(5):
            p.on_access(1, float(i))
        assert p.select_victim() == 2

    def test_empty_victim_rejected(self):
        with pytest.raises(SimulationError):
            LFUPolicy().select_victim()


class TestUtilityPolicy:
    def test_utility_formula(self):
        p = UtilityPolicy()
        p.on_insert(1, size_bytes=100, fetch_cost_ms=50.0, now_ms=0.0)
        # utility = accesses * cost / (size * (1 + invalidations))
        assert p.utility_of(1) == pytest.approx(1 * 50.0 / 100)
        p.on_access(1, 1.0)
        assert p.utility_of(1) == pytest.approx(2 * 50.0 / 100)

    def test_invalidation_feedback_lowers_utility(self):
        p = UtilityPolicy()
        p.on_insert(1, 100, 50.0, 0.0)
        before = p.utility_of(1)
        p.on_invalidation_feedback(1)
        assert p.utility_of(1) == pytest.approx(before / 2)

    def test_invalidation_history_survives_reinsert(self):
        """A repeatedly-invalidated document stays a poor candidate."""
        p = UtilityPolicy()
        p.on_insert(1, 100, 50.0, 0.0)
        p.on_invalidation_feedback(1)
        p.on_remove(1, invalidated=True)
        p.on_insert(1, 100, 50.0, 1.0)
        assert p.utility_of(1) == pytest.approx(1 * 50.0 / (100 * 2))

    def test_evicts_lowest_utility(self):
        p = UtilityPolicy()
        p.on_insert(1, size_bytes=100, fetch_cost_ms=10.0, now_ms=0.0)
        p.on_insert(2, size_bytes=10, fetch_cost_ms=10.0, now_ms=0.0)
        p.on_insert(3, size_bytes=10, fetch_cost_ms=200.0, now_ms=0.0)
        # utilities: doc1 = 0.1, doc2 = 1.0, doc3 = 20.0
        assert p.select_victim() == 1

    def test_large_cheap_documents_evicted_first(self):
        p = UtilityPolicy()
        p.on_insert(1, size_bytes=10_000, fetch_cost_ms=5.0, now_ms=0.0)
        p.on_insert(2, size_bytes=100, fetch_cost_ms=5.0, now_ms=0.0)
        assert p.select_victim() == 1

    def test_frequent_access_protects(self):
        p = UtilityPolicy()
        p.on_insert(1, 100, 10.0, 0.0)
        p.on_insert(2, 100, 10.0, 0.0)
        for i in range(10):
            p.on_access(1, float(i))
        assert p.select_victim() == 2

    def test_zero_fetch_cost_floored(self):
        p = UtilityPolicy()
        p.on_insert(1, 100, 0.0, 0.0)
        assert p.utility_of(1) > 0

    def test_bad_size_rejected(self):
        p = UtilityPolicy()
        with pytest.raises(SimulationError):
            p.on_insert(1, 0, 1.0, 0.0)

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: on_remove forgets the heap version, so a "
        "re-inserted document restarts at version 1 and a heap entry "
        "from its previous life passes select_victim's version check",
    )
    def test_stale_entry_from_a_previous_life_is_not_a_victim(self):
        p = UtilityPolicy()
        p.on_insert(1, size_bytes=100, fetch_cost_ms=5.0, now_ms=0.0)
        p.on_remove(1, invalidated=False)  # leaves (0.05, 1, 1) behind
        p.on_insert(1, size_bytes=10, fetch_cost_ms=25.0, now_ms=1.0)
        p.on_insert(2, size_bytes=100, fetch_cost_ms=5.0, now_ms=1.0)
        assert p.utility_of(1) == pytest.approx(2.5)
        assert p.utility_of(2) == pytest.approx(0.05)
        assert p.select_victim() == 2

    def test_untracked_operations_rejected(self):
        p = UtilityPolicy()
        with pytest.raises(SimulationError):
            p.on_access(1, 0.0)
        with pytest.raises(SimulationError):
            p.on_remove(1, invalidated=False)
        with pytest.raises(SimulationError):
            p.utility_of(1)


class TestMakePolicy:
    @pytest.mark.parametrize(
        "name,cls",
        [("utility", UtilityPolicy), ("lru", LRUPolicy), ("lfu", LFUPolicy)],
    )
    def test_known(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_unknown_rejected(self):
        with pytest.raises(SimulationError):
            make_policy("arc")
