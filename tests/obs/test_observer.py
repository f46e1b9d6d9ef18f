"""Tests for the Observer fan-out and its engine integration.

The integration half is the tentpole's anchor: a traced run must replay
to exactly the hit-rate decomposition the metrics report, and sampling
must tick on the simulated clock, not the wall clock.
"""

import pytest

from repro.config import (
    CacheConfig,
    DocumentConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.core.groups import CacheGroup, GroupingResult
from repro.errors import SimulationError
from repro.obs import (
    KIND_CACHE_FAIL,
    KIND_CACHE_RECOVER,
    KIND_ORIGIN_UPDATE,
    KIND_REQUEST,
    NULL_OBSERVER,
    MetricsSampler,
    Observer,
    TraceCollector,
    replay_hit_rates,
)
from repro.faults import FaultSchedule
from repro.simulator import simulate
from repro.topology import build_network, network_from_matrix
from repro.workload import Workload, build_catalog, generate_workload
from repro.workload.trace import RequestRecord


@pytest.fixture
def network():
    return network_from_matrix(
        [
            [0.0, 10.0, 20.0, 30.0],
            [10.0, 0.0, 4.0, 25.0],
            [20.0, 4.0, 0.0, 25.0],
            [30.0, 25.0, 25.0, 0.0],
        ]
    )


@pytest.fixture
def workload():
    catalog = build_catalog(
        DocumentConfig(
            num_documents=4, mean_size_bytes=1000.0, size_sigma=0.0,
            dynamic_fraction=0.0,
        ),
        seed=1,
    )
    requests = tuple(
        RequestRecord(float(i * 50), 1 + (i % 3), i % 4) for i in range(30)
    )
    return Workload(catalog=catalog, requests=requests, updates=())


def one_group():
    return GroupingResult(scheme="manual", groups=(CacheGroup(0, (1, 2, 3)),))


def config(warmup=0.0):
    return SimulationConfig(
        cache=CacheConfig(capacity_fraction=0.5), warmup_fraction=warmup
    )


class TestObserver:
    def test_null_observer_is_inactive(self):
        assert NULL_OBSERVER.active is False

    def test_active_with_any_instrument(self):
        assert Observer(trace=TraceCollector()).active
        assert Observer(sampler=MetricsSampler(100.0)).active
        assert not Observer().active

    def test_note_throughput(self):
        observer = Observer()
        observer.note_throughput(500, 0.25)
        assert observer.run_stats["events"] == 500.0
        assert observer.run_stats["events_per_sec"] == pytest.approx(2000.0)

    def test_zero_elapsed_omits_rate(self):
        observer = Observer()
        observer.note_throughput(5, 0.0)
        assert "events_per_sec" not in observer.run_stats


class TestEngineIntegration:
    def test_trace_replays_to_metrics_hit_rates(self, network, workload):
        observer = Observer(trace=TraceCollector())
        result = simulate(
            network, one_group(), workload, config(warmup=0.1),
            observer=observer,
        )
        requests = [
            r for r in observer.trace.records() if r.kind == KIND_REQUEST
        ]
        assert len(requests) == 30  # warm-up requests traced too
        assert sum(1 for r in requests if not r.counted) == 3
        assert replay_hit_rates(requests) == result.metrics.hit_rates()

    def test_trace_records_carry_latency_breakdown(self, network, workload):
        observer = Observer(trace=TraceCollector())
        simulate(network, one_group(), workload, config(), observer=observer)
        origin = [
            r for r in observer.trace.records()
            if r.kind == KIND_REQUEST and r.path == "origin_fetch"
        ]
        assert origin
        for record in origin:
            # total = components + fixed local-processing overhead
            components = (
                record.query_ms + record.fetch_ms + record.transfer_ms
            )
            assert record.total_ms >= components
            assert record.total_ms == pytest.approx(components, abs=5.0)
            assert record.size_bytes == 1000

    def test_failure_events_traced(self, network, workload):
        observer = Observer(trace=TraceCollector())
        simulate(
            network, one_group(), workload, config(),
            faults=FaultSchedule(
                crashes=((100.0, 2),), recoveries=((200.0, 2),)
            ),
            observer=observer,
        )
        kinds = [r.kind for r in observer.trace.records()]
        assert KIND_CACHE_FAIL in kinds
        assert KIND_CACHE_RECOVER in kinds
        fail = next(
            r for r in observer.trace.records() if r.kind == KIND_CACHE_FAIL
        )
        assert fail.cache == 2
        assert fail.timestamp_ms == 100.0

    def test_origin_updates_traced(self, network):
        config_obj = config()
        net = build_network(num_caches=8, seed=5)
        wl = generate_workload(
            net.cache_nodes,
            WorkloadConfig(
                documents=DocumentConfig(num_documents=30),
                requests_per_cache=20,
            ),
            seed=5,
        )
        assert wl.updates  # the generator schedules origin updates
        observer = Observer(trace=TraceCollector())
        simulate(net, one_group_of(net), wl, config_obj, observer=observer)
        updates = [
            r for r in observer.trace.records()
            if r.kind == KIND_ORIGIN_UPDATE
        ]
        assert len(updates) == len(wl.updates)

    def test_sampler_ticks_on_simulated_time(self, network, workload):
        # 30 requests at 50 ms spacing => ~1450 ms of simulated time;
        # a 500 ms interval must yield the 500/1000/1500 grid points.
        observer = Observer(sampler=MetricsSampler(interval_ms=500.0))
        simulate(network, one_group(), workload, config(), observer=observer)
        series = observer.sampler.series()
        assert list(series.time_ms) == [500.0, 1000.0, 1500.0]
        assert series.requests.sum() == 30

    @pytest.mark.parametrize("policy", ["utility", "lru"])
    def test_event_on_a_tick_opens_the_next_window(
        self, network, workload, policy
    ):
        """One rule in both loops (utility runs the kernel, LRU the
        oracle): a tick is flushed before an event at its exact time,
        so the requests at 500 and 1000 ms open windows 2 and 3."""
        observer = Observer(sampler=MetricsSampler(interval_ms=500.0))
        run_config = SimulationConfig(cache=CacheConfig(
            capacity_fraction=0.5, replacement_policy=policy,
        ))
        simulate(
            network, one_group(), workload, run_config, observer=observer
        )
        assert list(observer.sampler.series().requests) == [10, 10, 10]

    def test_result_accessors(self, network, workload):
        observer = Observer(
            trace=TraceCollector(),
            sampler=MetricsSampler(interval_ms=500.0),
        )
        result = simulate(
            network, one_group(), workload, config(), observer=observer
        )
        assert result.trace == observer.trace.records()
        assert len(result.timeseries()) == 3

    def test_result_accessors_raise_when_uninstrumented(
        self, network, workload
    ):
        result = simulate(network, one_group(), workload, config())
        with pytest.raises(SimulationError):
            result.timeseries()
        with pytest.raises(SimulationError):
            result.trace

    def test_uninstrumented_run_unchanged(self, network, workload):
        plain = simulate(network, one_group(), workload, config())
        traced = simulate(
            network, one_group(), workload, config(),
            observer=Observer(
                trace=TraceCollector(),
                sampler=MetricsSampler(interval_ms=250.0),
            ),
        )
        assert plain.metrics.hit_rates() == traced.metrics.hit_rates()
        assert plain.average_latency_ms() == traced.average_latency_ms()

    def test_throughput_recorded(self, network, workload):
        observer = Observer(trace=TraceCollector())
        simulate(network, one_group(), workload, config(), observer=observer)
        assert observer.run_stats["events"] >= 30.0
        assert observer.run_stats["elapsed_s"] > 0.0


def one_group_of(network):
    return GroupingResult(
        scheme="manual",
        groups=(CacheGroup(0, tuple(network.cache_nodes)),),
    )
