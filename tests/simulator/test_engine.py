"""Tests for the simulation engine's event handling."""

import gc
import weakref

import pytest

from repro.config import (
    CacheConfig,
    DocumentConfig,
    SimulationConfig,
)
from repro.core.groups import CacheGroup, GroupingResult
from repro.errors import SimulationError
import repro.simulator.engine as engine_module
from repro.simulator import SimulationEngine, simulate
from repro.workload import Workload, build_catalog
from repro.workload.trace import RequestRecord, UpdateRecord
from repro.topology import network_from_matrix


@pytest.fixture
def tiny_network():
    """Origin + 2 caches: Os--10ms--Ec0, Os--20ms--Ec1, Ec0--4ms--Ec1."""
    return network_from_matrix(
        [
            [0.0, 10.0, 20.0],
            [10.0, 0.0, 4.0],
            [20.0, 4.0, 0.0],
        ]
    )


@pytest.fixture
def tiny_catalog():
    return build_catalog(
        DocumentConfig(
            num_documents=4, mean_size_bytes=1000.0, size_sigma=0.0,
            dynamic_fraction=0.5,
        ),
        seed=1,
    )


def workload_of(catalog, requests, updates=()):
    return Workload(
        catalog=catalog, requests=tuple(requests), updates=tuple(updates)
    )


def sim_config(**overrides):
    defaults = dict(
        # Half the catalog fits in each cache (the default 10% of a
        # 4-document catalog would be smaller than one document).
        cache=CacheConfig(capacity_fraction=0.5, local_processing_ms=0.5),
        origin_processing_ms=40.0,
        link_bandwidth_bytes_per_ms=1000.0,
        group_lookup_ms=0.0,
        warmup_fraction=0.0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def pair_grouping():
    return GroupingResult(
        scheme="manual", groups=(CacheGroup(0, (1, 2)),)
    )


class TestRequestHandling:
    def test_first_request_is_origin_fetch(self, tiny_network, tiny_catalog):
        w = workload_of(tiny_catalog, [RequestRecord(0.0, 1, 0)])
        engine = SimulationEngine(
            tiny_network, pair_grouping(), w, config=sim_config()
        )
        metrics = engine.run()
        stats = metrics.cache_stats(1)
        assert stats.origin_fetches == 1
        # local 0.5 + query (beacon may be self or peer) + rtt 10
        # + origin 40 + transfer 1.
        base = 0.5 + 10.0 + 40.0 + 1.0
        assert stats.latency.mean in (
            pytest.approx(base),          # beacon was self
            pytest.approx(base + 4.0),    # beacon was the peer
        )

    def test_second_request_local_hit(self, tiny_network, tiny_catalog):
        w = workload_of(
            tiny_catalog,
            [RequestRecord(0.0, 1, 0), RequestRecord(1.0, 1, 0)],
        )
        engine = SimulationEngine(
            tiny_network, pair_grouping(), w, config=sim_config()
        )
        metrics = engine.run()
        stats = metrics.cache_stats(1)
        assert stats.origin_fetches == 1
        assert stats.local_hits == 1

    def test_peer_copy_gives_group_hit(self, tiny_network, tiny_catalog):
        w = workload_of(
            tiny_catalog,
            [RequestRecord(0.0, 1, 0), RequestRecord(1.0, 2, 0)],
        )
        engine = SimulationEngine(
            tiny_network, pair_grouping(), w, config=sim_config()
        )
        metrics = engine.run()
        assert metrics.cache_stats(2).group_hits == 1

    def test_singleton_groups_never_group_hit(
        self, tiny_network, tiny_catalog
    ):
        from repro.core.groups import singleton_groups

        w = workload_of(
            tiny_catalog,
            [RequestRecord(0.0, 1, 0), RequestRecord(1.0, 2, 0)],
        )
        engine = SimulationEngine(
            tiny_network,
            singleton_groups([1, 2]),
            w,
            config=sim_config(),
        )
        metrics = engine.run()
        assert metrics.cache_stats(2).group_hits == 0
        assert metrics.cache_stats(2).origin_fetches == 1

    def test_conservation_across_run(self, tiny_network, tiny_catalog):
        requests = [
            RequestRecord(float(i), 1 + (i % 2), i % 4) for i in range(40)
        ]
        w = workload_of(tiny_catalog, requests)
        engine = SimulationEngine(
            tiny_network, pair_grouping(), w, config=sim_config()
        )
        metrics = engine.run()
        assert metrics.total_requests() == 40
        assert metrics.conservation_holds()


class TestUpdateHandling:
    def test_update_invalidates_cached_copies(
        self, tiny_network, tiny_catalog
    ):
        dynamic_doc = tiny_catalog.dynamic_ids()[0]
        w = workload_of(
            tiny_catalog,
            [
                RequestRecord(0.0, 1, dynamic_doc),
                RequestRecord(10.0, 1, dynamic_doc),
            ],
            updates=[UpdateRecord(5.0, dynamic_doc)],
        )
        engine = SimulationEngine(
            tiny_network, pair_grouping(), w, config=sim_config()
        )
        metrics = engine.run()
        stats = metrics.cache_stats(1)
        # The copy was invalidated between the requests: two origin trips.
        assert stats.origin_fetches == 2
        assert stats.local_hits == 0
        assert stats.invalidations_received == 1
        assert metrics.invalidation_messages == 1

    def test_consistency_disabled_serves_stale(
        self, tiny_network, tiny_catalog
    ):
        dynamic_doc = tiny_catalog.dynamic_ids()[0]
        w = workload_of(
            tiny_catalog,
            [
                RequestRecord(0.0, 1, dynamic_doc),
                RequestRecord(10.0, 1, dynamic_doc),
            ],
            updates=[UpdateRecord(5.0, dynamic_doc)],
        )
        engine = SimulationEngine(
            tiny_network,
            pair_grouping(),
            w,
            config=sim_config(consistency_mode="none"),
        )
        metrics = engine.run()
        assert metrics.cache_stats(1).local_hits == 1
        assert metrics.invalidation_messages == 0

    def test_update_before_request_at_same_time(
        self, tiny_network, tiny_catalog
    ):
        """Simultaneous update+request: the request sees the new version."""
        dynamic_doc = tiny_catalog.dynamic_ids()[0]
        w = workload_of(
            tiny_catalog,
            [
                RequestRecord(0.0, 1, dynamic_doc),
                RequestRecord(5.0, 1, dynamic_doc),
            ],
            updates=[UpdateRecord(5.0, dynamic_doc)],
        )
        engine = SimulationEngine(
            tiny_network, pair_grouping(), w, config=sim_config()
        )
        engine.run()
        assert engine.cache(1).entry(dynamic_doc).version == 1


class TestWarmup:
    def test_warmup_requests_excluded_from_metrics(
        self, tiny_network, tiny_catalog
    ):
        requests = [RequestRecord(float(i), 1, 0) for i in range(10)]
        w = workload_of(tiny_catalog, requests)
        engine = SimulationEngine(
            tiny_network,
            pair_grouping(),
            w,
            config=sim_config(warmup_fraction=0.5),
        )
        metrics = engine.run()
        assert metrics.total_requests() == 5
        assert metrics.warmup_skipped == 5

    def test_warmup_still_populates_cache(self, tiny_network, tiny_catalog):
        requests = [RequestRecord(0.0, 1, 0), RequestRecord(1.0, 1, 0)]
        w = workload_of(tiny_catalog, requests)
        engine = SimulationEngine(
            tiny_network,
            pair_grouping(),
            w,
            config=sim_config(warmup_fraction=0.5),
        )
        metrics = engine.run()
        # Only the second request is counted, and it is a local hit
        # because the warm-up request populated the cache.
        assert metrics.cache_stats(1).local_hits == 1


class TestValidation:
    def test_grouping_must_cover_network(self, tiny_network, tiny_catalog):
        w = workload_of(tiny_catalog, [RequestRecord(0.0, 1, 0)])
        partial = GroupingResult(
            scheme="manual", groups=(CacheGroup(0, (1,)),)
        )
        with pytest.raises(SimulationError):
            SimulationEngine(tiny_network, partial, w, config=sim_config())

    def test_request_for_unknown_cache_rejected(
        self, tiny_network, tiny_catalog
    ):
        w = workload_of(tiny_catalog, [RequestRecord(0.0, 9, 0)])
        with pytest.raises(SimulationError):
            SimulationEngine(
                tiny_network, pair_grouping(), w, config=sim_config()
            )

    def test_directory_tracks_evictions(self, tiny_network):
        """Evicted copies disappear from the group directory."""
        catalog = build_catalog(
            DocumentConfig(
                num_documents=10, mean_size_bytes=1000.0, size_sigma=0.0,
                dynamic_fraction=0.0,
            ),
            seed=2,
        )
        # Capacity fraction sized to hold exactly 1 of the 10 documents.
        config = sim_config(
            cache=CacheConfig(capacity_fraction=0.1, local_processing_ms=0.5),
        )
        requests = [RequestRecord(float(i), 1, i % 3) for i in range(9)]
        w = workload_of(catalog, requests)
        engine = SimulationEngine(
            tiny_network, pair_grouping(), w, config=config
        )
        engine.run()
        held = set(engine.cache(1).stored_ids())
        for doc in range(3):
            holders = set(engine.protocol.all_holders(doc))
            assert (1 in holders) == (doc in held)


@pytest.fixture
def kernel_calls():
    """Spy on the kernel: per call, (collector enabled?, engine weakref).

    Restores the cyclic collector's setting whatever the test does.
    """
    was_enabled = gc.isenabled()
    calls = []
    kernel = engine_module.run_batched

    def spy(engine):
        calls.append((gc.isenabled(), weakref.ref(engine)))
        return kernel(engine)

    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine_module, "run_batched", spy)
            yield calls
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


class TestCollectorAndLifetime:
    """The kernel pauses the cyclic collector; the engine frees itself."""

    def run_update(self, network, catalog, doc):
        workload = workload_of(
            catalog,
            [RequestRecord(0.0, 1, doc), RequestRecord(10.0, 2, doc)],
            updates=[UpdateRecord(5.0, doc)],
        )
        return simulate(network, pair_grouping(), workload, sim_config())

    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_setting_is_restored(
        self, tiny_network, tiny_catalog, kernel_calls, enabled
    ):
        (gc.enable if enabled else gc.disable)()
        self.run_update(
            tiny_network, tiny_catalog, tiny_catalog.dynamic_ids()[0]
        )
        [(collector_on_in_kernel, _)] = kernel_calls
        assert not collector_on_in_kernel
        assert gc.isenabled() is enabled

    def test_setting_restored_when_the_kernel_raises(
        self, tiny_network, tiny_catalog, kernel_calls
    ):
        static = next(
            doc for doc in range(len(tiny_catalog))
            if not tiny_catalog.is_dynamic(doc)
        )
        gc.enable()
        with pytest.raises(SimulationError, match="static document"):
            self.run_update(tiny_network, tiny_catalog, static)
        assert len(kernel_calls) == 1
        assert gc.isenabled()

    def test_engine_is_freed_without_the_collector(
        self, tiny_network, tiny_catalog, kernel_calls
    ):
        gc.disable()
        result = self.run_update(
            tiny_network, tiny_catalog, tiny_catalog.dynamic_ids()[0]
        )
        assert result.metrics.invalidation_messages == 1
        [(_, engine_ref)] = kernel_calls
        assert engine_ref() is None
