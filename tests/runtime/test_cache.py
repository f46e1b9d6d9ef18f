"""Tests for the content-keyed testbed cache."""

import pytest

from repro.runtime import cache as runtime_cache
from repro.runtime.cache import (
    CACHE_FORMAT_VERSION,
    MAX_ENTRIES,
    cached_network,
    configure_cache,
    get_cache,
    network_key,
    reset_cache,
    stats_delta,
)

# Aliased so pytest does not try to collect the ``TestbedCache`` class
# and ``testbed_key`` function (their names match its test patterns).
Cache = runtime_cache.TestbedCache
make_testbed_key = runtime_cache.testbed_key


@pytest.fixture(autouse=True)
def fresh_cache():
    """Isolate each test from the process-wide cache."""
    reset_cache()
    yield
    reset_cache()


class TestTestbedCache:
    def test_build_then_hit(self):
        cache = Cache()
        calls = []
        first = cache.get_or_build("k", lambda: calls.append(1) or "value")
        second = cache.get_or_build("k", lambda: calls.append(1) or "other")
        assert first == second == "value"
        assert calls == [1]
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction(self):
        cache = Cache()
        keys = [f"k{i}" for i in range(MAX_ENTRIES)]
        for key in keys:
            cache.get_or_build(key, lambda: key)
        cache.get_or_build(keys[0], lambda: 0)  # refresh the oldest
        cache.get_or_build("new", lambda: 3)  # evicts keys[1]
        assert cache.stats()["evictions"] == 1
        assert len(cache) == MAX_ENTRIES
        builds = []
        cache.get_or_build(keys[0], lambda: builds.append(1) or 0)
        assert builds == []
        cache.get_or_build(keys[1], lambda: builds.append(1) or 2)
        assert builds == [1]

    def test_disk_round_trip(self, tmp_path):
        writer = Cache(disk_dir=tmp_path)
        built = writer.get_or_build("key", lambda: {"payload": [1, 2, 3]})
        assert writer.stats()["disk_stores"] == 1

        reader = Cache(disk_dir=tmp_path)
        loaded = reader.get_or_build("key", lambda: pytest.fail("rebuilt"))
        assert loaded == built
        assert reader.stats()["disk_hits"] == 1
        assert reader.stats()["misses"] == 0

    def test_stats_delta(self):
        before = {"hits": 2, "misses": 1}
        after = {"hits": 5, "misses": 1, "evictions": 3}
        assert stats_delta(before, after) == {
            "hits": 3, "misses": 0, "evictions": 3,
        }

    def test_absorb_stats(self):
        cache = Cache()
        cache.absorb_stats({"hits": 4, "disk_hits": 2})
        assert cache.stats()["hits"] == 4
        assert cache.stats()["disk_hits"] == 2


class TestKeys:
    def test_keys_embed_version_and_inputs(self):
        key = network_key(100, 7)
        assert key == (
            f"network/v{CACHE_FORMAT_VERSION}/n=100/seed=7/stream=topology"
        )
        assert network_key(101, 7) != key
        assert network_key(100, 8) != key

    def test_testbed_key_distinguishes_workload(self):
        base = make_testbed_key(50, 3, 150, 400)
        assert make_testbed_key(50, 3, 151, 400) != base
        assert make_testbed_key(50, 3, 150, 401) != base

    def test_entry_written_under_format_2_is_a_miss(
        self, tmp_path, monkeypatch
    ):
        # Format 2 pickled a workload's update log as a tuple of records.
        assert CACHE_FORMAT_VERSION == 4
        self._check_old_entry_is_a_miss(tmp_path, monkeypatch, 2)

    def test_entry_written_under_format_3_is_a_miss(
        self, tmp_path, monkeypatch
    ):
        # Format 3 pickled a network's router graph as a networkx graph.
        self._check_old_entry_is_a_miss(tmp_path, monkeypatch, 3)

    @staticmethod
    def _check_old_entry_is_a_miss(tmp_path, monkeypatch, version):
        with monkeypatch.context() as patch:
            patch.setattr(runtime_cache, "CACHE_FORMAT_VERSION", version)
            old_key = make_testbed_key(50, 3, 150, 400)
        Cache(disk_dir=tmp_path).get_or_build(old_key, lambda: "old")
        reader = Cache(disk_dir=tmp_path)
        value = reader.get_or_build(
            make_testbed_key(50, 3, 150, 400), lambda: "rebuilt"
        )
        assert value == "rebuilt"
        assert reader.stats()["disk_hits"] == 0
        assert reader.stats()["misses"] == 1


class TestModuleCache:
    def test_configure_preserves_counters(self, tmp_path):
        get_cache().get_or_build("k", lambda: 1)
        cache = configure_cache(disk_dir=tmp_path)
        assert cache is get_cache()
        assert cache.stats()["misses"] == 1
        assert cache.disk_dir == tmp_path

    def test_reset_gives_fresh_cache(self):
        get_cache().get_or_build("k", lambda: 1)
        fresh = reset_cache()
        assert fresh is get_cache()
        assert fresh.stats()["misses"] == 0


class TestCachedNetwork:
    def test_hit_is_same_object(self):
        first = cached_network(20, 5)
        second = cached_network(20, 5)
        assert first is second
        assert get_cache().stats()["hits"] == 1

    def test_matches_direct_build(self):
        import numpy as np

        from repro.topology.network import build_network
        from repro.utils.rng import RngFactory

        cached = cached_network(20, 5)
        direct = build_network(
            num_caches=20, seed=RngFactory(5).stream("topology")
        )
        assert np.array_equal(
            cached.distances.as_array(), direct.distances.as_array()
        )
