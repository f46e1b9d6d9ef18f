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
from repro.faults.schedule import FaultSchedule, PartitionSpec
import repro.simulator.batched as batched_module
import repro.simulator.engine as engine_module
import repro.simulator.events as events_module
from repro.simulator import SimulationEngine, simulate
from repro.simulator.engine import runs_on_kernel
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
def loop_calls():
    """Spy on both event loops: per call, (loop name, collector
    enabled?, engine weakref).

    Restores the cyclic collector's setting whatever the test does.
    """
    was_enabled = gc.isenabled()
    calls = []

    def spy(name):
        loop = getattr(engine_module, name)

        def spying(engine):
            calls.append((name, gc.isenabled(), weakref.ref(engine)))
            return loop(engine)

        return spying

    try:
        with pytest.MonkeyPatch.context() as patch:
            for name in ("run_batched", "run_reference"):
                patch.setattr(engine_module, name, spy(name))
            yield calls
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


class TestCollectorAndLifetime:
    """Either loop runs with the cyclic collector paused; the engine
    frees itself.  LRU replacement sends a run to the oracle."""

    def run_update(self, network, catalog, doc, policy="utility"):
        workload = workload_of(
            catalog,
            [RequestRecord(0.0, 1, doc), RequestRecord(10.0, 2, doc)],
            updates=[UpdateRecord(5.0, doc)],
        )
        config = sim_config(cache=CacheConfig(
            capacity_fraction=0.5, local_processing_ms=0.5,
            replacement_policy=policy,
        ))
        return simulate(network, pair_grouping(), workload, config)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_setting_is_restored(
        self, tiny_network, tiny_catalog, loop_calls, enabled
    ):
        (gc.enable if enabled else gc.disable)()
        self.run_update(
            tiny_network, tiny_catalog, tiny_catalog.dynamic_ids()[0]
        )
        [(loop, collector_on_in_loop, _)] = loop_calls
        assert loop == "run_batched"
        assert not collector_on_in_loop
        assert gc.isenabled() is enabled

    def test_setting_restored_when_the_kernel_raises(
        self, tiny_network, tiny_catalog, loop_calls
    ):
        static = next(
            doc for doc in range(len(tiny_catalog))
            if not tiny_catalog.is_dynamic(doc)
        )
        gc.enable()
        with pytest.raises(SimulationError, match="static document"):
            self.run_update(tiny_network, tiny_catalog, static)
        assert [call[0] for call in loop_calls] == ["run_batched"]
        assert gc.isenabled()

    def test_engine_is_freed_without_the_collector(
        self, tiny_network, tiny_catalog, loop_calls
    ):
        gc.disable()
        result = self.run_update(
            tiny_network, tiny_catalog, tiny_catalog.dynamic_ids()[0]
        )
        assert result.metrics.invalidation_messages == 1
        [(loop, _, engine_ref)] = loop_calls
        assert loop == "run_batched"
        assert engine_ref() is None

    def test_oracle_run_pauses_the_collector_and_frees_the_engine(
        self, tiny_network, tiny_catalog, loop_calls
    ):
        doc = tiny_catalog.dynamic_ids()[0]
        gc.enable()
        self.run_update(tiny_network, tiny_catalog, doc, policy="lru")
        assert gc.isenabled()
        gc.disable()
        result = self.run_update(
            tiny_network, tiny_catalog, doc, policy="lru"
        )
        assert result.metrics.invalidation_messages == 1
        (_, paused, _), (_, _, engine_ref) = loop_calls
        assert [call[0] for call in loop_calls] == ["run_reference"] * 2
        assert not paused
        assert engine_ref() is None


#: One configuration per mode the kernel does not run: each takes the
#: per-event oracle and the engine's handlers.
REJECTED = {
    "lru": dict(config=sim_config(cache=CacheConfig(
        capacity_fraction=0.5, replacement_policy="lru",
    ))),
    "lfu": dict(config=sim_config(cache=CacheConfig(
        capacity_fraction=0.5, replacement_policy="lfu",
    ))),
    "directory": dict(group_protocol_mode="directory"),
    "multicast": dict(group_protocol_mode="multicast"),
    "ttl": dict(config=sim_config(consistency_mode="ttl")),
    "none": dict(config=sim_config(consistency_mode="none")),
    "origin-capacity": dict(config=sim_config(origin_capacity_rps=100.0)),
    "placement": dict(config=sim_config(cache=CacheConfig(
        capacity_fraction=0.5, placement_rtt_threshold_ms=5.0,
    ))),
    "crash": dict(faults=FaultSchedule(crashes=((2.5, 1),))),
    "partition": dict(faults=FaultSchedule(
        partitions=(PartitionSpec(2.5, 6.0, nodes=(2,)),)
    )),
}


class TestDispatch:
    """``SimulationEngine.run`` runs the kernel for the paper's cache
    model only; every other mode runs the oracle, once."""

    def run(self, network, catalog, **kwargs):
        requests = [
            RequestRecord(float(i), 1 + (i % 2), i % 4) for i in range(8)
        ]
        dynamic_doc = catalog.dynamic_ids()[0]
        workload = workload_of(
            catalog, requests, updates=[UpdateRecord(4.0, dynamic_doc)]
        )
        kwargs.setdefault("config", sim_config())
        return simulate(network, pair_grouping(), workload, **kwargs)

    def test_default_configuration_runs_the_kernel(
        self, tiny_network, tiny_catalog, loop_calls
    ):
        self.run(tiny_network, tiny_catalog)
        assert [call[0] for call in loop_calls] == ["run_batched"]

    @pytest.mark.parametrize("mode", sorted(REJECTED))
    def test_other_modes_run_the_oracle(
        self, tiny_network, tiny_catalog, loop_calls, mode
    ):
        result = self.run(tiny_network, tiny_catalog, **REJECTED[mode])
        assert [call[0] for call in loop_calls] == ["run_reference"]
        assert result.metrics.total_requests() == 8

    @pytest.fixture
    def column_builds(self, monkeypatch):
        """Count ``columns_from_arrays`` calls, wherever it is bound."""
        calls = []
        build = events_module.columns_from_arrays

        def counting(*args):
            calls.append(args)
            return build(*args)

        for module in (events_module, batched_module, engine_module):
            if hasattr(module, "columns_from_arrays"):
                monkeypatch.setattr(module, "columns_from_arrays", counting)
        return calls

    def test_kernel_run_builds_the_event_columns_once(
        self, tiny_network, tiny_catalog, column_builds
    ):
        self.run(tiny_network, tiny_catalog)
        assert len(column_builds) == 1

    @pytest.mark.parametrize("mode", sorted(REJECTED))
    def test_oracle_run_builds_no_event_columns(
        self, tiny_network, tiny_catalog, column_builds, mode
    ):
        self.run(tiny_network, tiny_catalog, **REJECTED[mode])
        assert column_builds == []


class TestPaperTraffic:
    """Every figure and every engine benchmark runs the kernel only."""

    def test_figures_never_leave_the_kernel(self, monkeypatch):
        from repro.experiments import REGISTRY
        from repro.experiments.suite import run_suite

        def refuse(engine):
            raise AssertionError("a figure ran the per-event oracle")

        monkeypatch.setattr(engine_module, "run_reference", refuse)
        run = run_suite(repetitions=1)
        assert sorted(run.results) == sorted(REGISTRY)

    def test_bench_scenarios_satisfy_the_kernel_predicate(self):
        from repro.bench.core import _SCENARIOS, _build_bench_testbed

        for name, scenario in _SCENARIOS.items():
            config = _build_bench_testbed(scenario)[3]
            # run_engine_bench simulates with the default protocol and
            # no fault schedule.
            assert runs_on_kernel(config, "beacon", FaultSchedule()), name
