"""Bit-identity of the event kernel against the reference oracle.

The columnar slice kernel (:mod:`repro.simulator.batched`) is a pure
performance rewrite of the per-event oracle
(:func:`repro.simulator.engine.run_reference`): every metric, trace
record, sample, archived figure byte, and sanitize-ledger digest must
equal the oracle's exactly — not approximately — and so must the
post-run state the kernel writes inline.  A fixed matrix of
hand-picked configurations (plain, faulted, and per protocol mode) and
two hypothesis differential fuzzes — one over generated combinations
of replacement policy, consistency, protocol mode, capacity, warm-up,
failures, partitions, and instrumentation, one pinned to the
write-heavy inline update path — pin that contract; further fixed
tests carry it through the figure and sanitize layers that consume the
engine.

Tests run the oracle by swapping it in for the kernel with
``monkeypatch.setattr(repro.simulator.engine, "run_batched",
run_reference)``; the engine has no user-facing loop switch.
"""

import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simulator.engine as engine_module
from repro.config import (
    CacheConfig,
    DocumentConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.core.groups import GroupingResult, groups_from_labels
from repro.faults.schedule import FaultSchedule, PartitionSpec
from repro.obs import MetricsSampler, Observer, TraceCollector
from repro.sanitize import diff_ledgers, sanitize
from repro.simulator import (
    CacheFailEvent,
    CacheRecoverEvent,
    SimulationEngine,
    simulate,
)
from repro.simulator.engine import run_reference
from repro.topology import build_network
from repro.workload import generate_workload


@pytest.fixture(scope="module")
def testbed():
    network = build_network(num_caches=20, seed=31)
    workload = generate_workload(
        network.cache_nodes,
        WorkloadConfig(
            documents=DocumentConfig(
                num_documents=120, dynamic_fraction=0.5
            ),
            requests_per_cache=150,
        ),
        seed=31,
    )
    nodes = network.cache_nodes
    grouping = GroupingResult(
        scheme="test",
        groups=groups_from_labels(nodes, [n % 4 for n in nodes]),
    )
    return network, workload, grouping


def fingerprint(metrics):
    """Canonical JSON of every number a run produces (reprs keep bits).

    Moments of an empty latency stream are undefined, so a cache (or a
    run) with no counted requests contributes its counters only.
    """
    rows = []
    for node in metrics.cache_nodes():
        stats = metrics.cache_stats(node)
        latency = stats.latency
        moments = []
        if latency.count:
            moments = [
                repr(latency.mean), repr(latency.variance),
                repr(latency.minimum), repr(latency.maximum),
            ]
        rows.append([
            node, stats.local_hits, stats.group_hits,
            stats.origin_fetches, stats.query_messages, stats.peer_bytes,
            stats.origin_bytes, stats.invalidations_received,
            stats.stale_serves, stats.placement_skips,
            stats.requests_while_down, stats.partition_timeouts,
            latency.count, *moments,
        ])
    totals = [metrics.warmup_skipped, metrics.invalidation_messages]
    if metrics.total_requests():
        totals += [
            repr(metrics.latency_p95_ms()),
            repr(metrics.average_latency_ms()),
        ]
    rows.append(totals)
    return json.dumps(rows)


def state_fingerprint(engine):
    """Canonical JSON of the post-run state both loops write.

    Covers what the kernel mutates inline: origin versions and update
    count, each cache's used bytes and store records, each replacement
    policy's maps (in insertion order), and the holder directory.  A
    policy heap is compared as a multiset: the kernel defers pushes,
    which changes the heap's array layout but not its pop order.
    """
    origin = engine.origin
    rows = [
        origin.updates_applied,
        list(origin.hot_state()["versions"].items()),
    ]
    for node in engine.metrics.cache_nodes():
        cache = engine.cache(node)
        records = [
            [doc, size, repr(stored_at), version]
            for doc, (size, stored_at, version) in (
                cache.store.docs[node].items()
            )
        ]
        policy = []
        for key, value in sorted(cache.policy.hot_state().items()):
            if key == "heap":
                value = sorted(value)
            else:
                value = list(value.items())
            policy.append([key, repr(value)])
        rows.append([node, cache.used_bytes, records, policy])
    rows.append([
        [doc, [[group, sorted(held)] for group, held in by_group.items()]]
        for doc, by_group in engine.protocol.hot_state()["holders"].items()
    ])
    return json.dumps(rows)


def kernel_and_oracle(run):
    """``run()`` once on the kernel, then once with the oracle swapped in."""
    kernel = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "run_batched", run_reference)
        oracle = run()
    return kernel, oracle


def faults_for(network, workload):
    horizon = workload.horizon_ms
    nodes = network.cache_nodes
    failures = (
        CacheFailEvent(horizon * 0.2, nodes[4]),
        CacheRecoverEvent(horizon * 0.7, nodes[4]),
    )
    faults = FaultSchedule(
        crashes=((horizon * 0.3, nodes[7]),),
        recoveries=((horizon * 0.8, nodes[7]),),
        partitions=(
            PartitionSpec(
                horizon * 0.4, horizon * 0.6, nodes=tuple(nodes[:6])
            ),
        ),
    )
    return failures, faults


ALL_CONFIGS = [
    pytest.param(SimulationConfig(), id="default"),
    pytest.param(
        SimulationConfig(consistency_mode="ttl", ttl_ms=1_500.0),
        id="ttl",
    ),
    pytest.param(
        SimulationConfig(
            cache=CacheConfig(
                cooperative_placement=True,
                placement_rtt_threshold_ms=15.0,
            )
        ),
        id="coop-placement",
    ),
    pytest.param(
        SimulationConfig(
            origin_queueing=True, origin_capacity_rps=150.0
        ),
        id="origin-queueing",
    ),
    pytest.param(
        SimulationConfig(cache=CacheConfig(replacement_policy="lru")),
        id="lru",
    ),
    pytest.param(
        SimulationConfig(cache=CacheConfig(replacement_policy="lfu")),
        id="lfu",
    ),
]


class TestMetricsEquivalence:
    """Hand-picked configurations on a fixed testbed, kernel vs oracle."""

    @pytest.mark.parametrize("config", ALL_CONFIGS)
    def test_plain(self, testbed, config):
        network, workload, grouping = testbed
        kernel, oracle = kernel_and_oracle(
            lambda: fingerprint(
                simulate(network, grouping, workload, config).metrics
            )
        )
        assert kernel == oracle

    @pytest.mark.parametrize("config", ALL_CONFIGS)
    def test_with_failures_and_partitions(self, testbed, config):
        network, workload, grouping = testbed
        failures, faults = faults_for(network, workload)
        kernel, oracle = kernel_and_oracle(
            lambda: fingerprint(
                simulate(
                    network, grouping, workload, config,
                    failures=failures, faults=faults,
                ).metrics
            )
        )
        assert kernel == oracle

    @pytest.mark.parametrize(
        "mode", ["beacon", "directory", "multicast"]
    )
    def test_protocol_modes(self, testbed, mode):
        network, workload, grouping = testbed
        kernel, oracle = kernel_and_oracle(
            lambda: fingerprint(
                simulate(
                    network, grouping, workload, group_protocol_mode=mode
                ).metrics
            )
        )
        assert kernel == oracle


# -- the differential fuzz ------------------------------------------------


@lru_cache(maxsize=None)
def fuzz_network(num_caches):
    return build_network(num_caches=num_caches, seed=7)


def event_time(data, request_times, horizon):
    """A fault time: often exactly on a request (barrier-before-request)."""
    return data.draw(
        st.one_of(
            st.sampled_from(request_times),
            st.floats(0.0, horizon, allow_nan=False, allow_infinity=False),
        ),
        label="time",
    )


def draw_scenario(data, write_heavy=False):
    """Everything one differential run needs, drawn piece by piece.

    ``write_heavy`` pins the kernel's inline update barrier: utility
    replacement, server-driven invalidation, a mostly dynamic catalog
    and frequent updates (partitions still hand some barriers to the
    engine's handler).
    """
    network = fuzz_network(
        data.draw(st.sampled_from([4, 8, 12]), label="caches")
    )
    nodes = network.cache_nodes
    workload = generate_workload(
        nodes,
        WorkloadConfig(
            documents=DocumentConfig(
                num_documents=data.draw(st.integers(5, 60), label="documents"),
                dynamic_fraction=data.draw(
                    st.sampled_from(
                        [0.6, 1.0] if write_heavy else [0.0, 0.3, 0.6, 1.0]
                    ),
                    label="dynamic",
                ),
            ),
            requests_per_cache=data.draw(
                st.integers(3, 40), label="requests per cache"
            ),
            # Down to a few ms between updates: slices of a request or
            # two between barriers.
            mean_update_interarrival_ms=data.draw(
                st.sampled_from(
                    [5.0, 40.0] if write_heavy
                    else [5.0, 40.0, 400.0, 5_000.0]
                ),
                label="update gap ms",
            ),
        ),
        seed=data.draw(st.integers(0, 2**16), label="seed"),
    )
    num_groups = data.draw(st.integers(1, 4), label="groups")
    grouping = GroupingResult(
        scheme="fuzz",
        groups=groups_from_labels(nodes, [n % num_groups for n in nodes]),
    )

    consistency = data.draw(
        st.just("invalidate") if write_heavy
        else st.sampled_from(["invalidate", "ttl", "disabled"]),
        label="consistency",
    )
    config = SimulationConfig(
        cache=CacheConfig(
            # The smallest fractions hold only a few documents (or
            # none), forcing evictions and rejected admissions.
            capacity_fraction=data.draw(
                st.sampled_from([0.001, 0.01, 0.05, 0.2, 1.0]),
                label="capacity",
            ),
            replacement_policy=data.draw(
                st.just("utility") if write_heavy
                else st.sampled_from(["utility", "lru", "lfu"]),
                label="policy",
            ),
            cooperative_placement=data.draw(
                st.booleans(), label="cooperative"
            ),
            placement_rtt_threshold_ms=data.draw(
                st.sampled_from([5.0, 15.0, 60.0]), label="placement rtt"
            ),
        ),
        warmup_fraction=data.draw(
            st.sampled_from([0.0, 0.1, 0.5]), label="warmup"
        ),
        consistency_enabled=consistency != "disabled",
        consistency_mode="ttl" if consistency == "ttl" else "invalidate",
        ttl_ms=data.draw(
            st.sampled_from([50.0, 800.0, 5_000.0]), label="ttl ms"
        ),
        origin_queueing=data.draw(st.booleans(), label="queueing"),
        origin_capacity_rps=data.draw(
            st.sampled_from([20.0, 200.0]), label="origin rps"
        ),
    )
    protocol = data.draw(
        st.sampled_from(["beacon", "directory", "multicast"]),
        label="protocol",
    )

    request_times = [r.timestamp_ms for r in workload.requests]
    horizon = workload.horizon_ms
    failures = []
    crashes, recoveries = [], []
    crashed = data.draw(
        st.lists(st.sampled_from(nodes), unique=True, max_size=3),
        label="crashed",
    )
    for node in crashed:
        fail_at = event_time(data, request_times, horizon)
        recover_at = None
        if data.draw(st.booleans(), label="recovers"):
            recover_at = fail_at + data.draw(
                st.floats(1.0, horizon + 1.0), label="downtime"
            )
        if data.draw(st.booleans(), label="via schedule"):
            crashes.append((fail_at, node))
            if recover_at is not None:
                recoveries.append((recover_at, node))
        else:
            failures.append(CacheFailEvent(fail_at, node))
            if recover_at is not None:
                failures.append(CacheRecoverEvent(recover_at, node))
    partitions = []
    free = list(nodes) + [network.origin]
    for _ in range(data.draw(st.integers(0, 2), label="partitions")):
        cut = data.draw(
            st.lists(st.sampled_from(free), unique=True, min_size=1,
                     max_size=3),
            label="cut",
        )
        free = [node for node in free if node not in cut]
        start = event_time(data, request_times, horizon)
        end = start + data.draw(st.floats(1.0, horizon + 1.0), label="span")
        partitions.append(PartitionSpec(start, end, nodes=tuple(cut)))
    faults = None
    if crashes or partitions:
        faults = FaultSchedule(
            crashes=tuple(crashes),
            recoveries=tuple(recoveries),
            partitions=tuple(partitions),
            partition_timeout_ms=data.draw(
                st.sampled_from([1.0, 500.0]), label="partition timeout"
            ),
        )

    trace_capacity = data.draw(
        st.sampled_from(["off", "unbounded", 7, 60]), label="trace"
    )
    sample_ms = data.draw(
        st.sampled_from([None, 25.0, 1_000.0]), label="sample ms"
    )
    return dict(
        network=network, workload=workload, grouping=grouping,
        config=config, protocol=protocol, failures=tuple(failures),
        faults=faults, trace_capacity=trace_capacity, sample_ms=sample_ms,
    )


def observed_run(scenario, trace_path):
    """Run one scenario under the sanitizer; every output, comparable.

    The engine is built directly (as ``simulate()`` would) so its
    post-run state can be compared as well as its outputs.
    """
    capacity = scenario["trace_capacity"]
    trace = None
    if capacity != "off":
        trace = TraceCollector(
            capacity=None if capacity == "unbounded" else capacity
        )
    sampler = None
    if scenario["sample_ms"] is not None:
        sampler = MetricsSampler(interval_ms=scenario["sample_ms"])
    observer = None
    if trace is not None or sampler is not None:
        observer = Observer(trace=trace, sampler=sampler)
    with sanitize() as state:
        engine = SimulationEngine(
            scenario["network"], scenario["grouping"],
            scenario["workload"], scenario["config"],
            group_protocol_mode=scenario["protocol"],
            failures=scenario["failures"], observer=observer,
            faults=scenario["faults"],
        )
        metrics = engine.run()
    outputs = {
        "metrics": fingerprint(metrics),
        "state": state_fingerprint(engine),
        "ledger": json.dumps(state.ledger.to_dict(), sort_keys=True),
    }
    if trace is not None:
        trace.write_jsonl(trace_path)
        outputs["trace"] = trace_path.read_bytes()
        outputs["trace_counts"] = (trace.total_recorded, trace.dropped)
    if sampler is not None:
        outputs["samples"] = json.dumps(
            sampler.series().to_dict(), sort_keys=True
        )
    return outputs


class TestKernelMatchesOracle:
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_generated_runs_are_byte_equal(self, data, tmp_path_factory):
        scenario = draw_scenario(data)
        trace_path = tmp_path_factory.getbasetemp() / "fuzz-trace.jsonl"
        kernel, oracle = kernel_and_oracle(
            lambda: observed_run(scenario, trace_path)
        )
        assert kernel == oracle

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_generated_write_heavy_runs_are_byte_equal(
        self, data, tmp_path_factory
    ):
        scenario = draw_scenario(data, write_heavy=True)
        trace_path = tmp_path_factory.getbasetemp() / "fuzz-trace.jsonl"
        kernel, oracle = kernel_and_oracle(
            lambda: observed_run(scenario, trace_path)
        )
        assert kernel == oracle


# -- fixed layers on top of the engine ------------------------------------


class TestInstrumentedEquivalence:
    """Trace and sample output, plain and under ``faults_for``'s crashes,
    recoveries and partition: the faulted runs put down-cache
    ``origin_fetch`` rows and barrier-time flushes in the output."""

    def run(self, testbed, capacity=None, faulted=False):
        network, workload, grouping = testbed
        trace = (
            TraceCollector(capacity=capacity)
            if capacity
            else TraceCollector()
        )
        observer = Observer(
            trace=trace, sampler=MetricsSampler(interval_ms=500.0)
        )
        failures, faults = (
            faults_for(network, workload) if faulted else ((), None)
        )
        result = simulate(
            network, grouping, workload, observer=observer,
            failures=failures, faults=faults,
        )
        return result, trace

    @pytest.mark.parametrize(
        "capacity, faulted",
        [(None, False), (300, False), (None, True)],
        ids=["None", "300", "faulted"],
    )
    def test_trace_jsonl_is_byte_identical(
        self, testbed, tmp_path, capacity, faulted
    ):
        def jsonl():
            result, trace = self.run(
                testbed, capacity=capacity, faulted=faulted
            )
            metrics = result.metrics
            served_while_down = sum(
                metrics.cache_stats(node).requests_while_down
                for node in metrics.cache_nodes()
            )
            assert (served_while_down > 0) == faulted
            path = tmp_path / f"{capacity}.jsonl"
            trace.write_jsonl(path)
            return path.read_bytes()

        kernel, oracle = kernel_and_oracle(jsonl)
        assert kernel == oracle

    def test_sampled_series_is_identical(self, testbed):
        def series():
            return [
                json.dumps(
                    self.run(testbed, faulted=faulted)[0]
                    .timeseries().to_dict(),
                    sort_keys=True,
                )
                for faulted in (False, True)
            ]

        kernel, oracle = kernel_and_oracle(series)
        assert kernel[0] != kernel[1]
        assert kernel == oracle


class TestFigureArchive:
    """The figure layer on top of the engine archives identical bytes."""

    def test_fig3_archive_bytes_match(self, tmp_path):
        from repro.experiments import run_fig3
        from repro.persist import save_result

        def archive():
            result = run_fig3(
                num_caches=16, group_sizes=(1, 4, 16), subset_count=3,
                seed=9,
            )
            path = tmp_path / "fig3.json"
            save_result(result, path)
            return path.read_bytes()

        kernel, oracle = kernel_and_oracle(archive)
        assert kernel == oracle


class TestSanitizeLedger:
    """The draw ledger sees the same event stream from kernel and oracle."""

    def test_ledger_matches_across_loops(self, testbed):
        network, workload, grouping = testbed
        failures = (
            CacheFailEvent(workload.horizon_ms * 0.2, network.cache_nodes[4]),
        )

        def ledger():
            with sanitize() as state:
                simulate(network, grouping, workload, failures=failures)
            return state.ledger

        kernel, oracle = kernel_and_oracle(ledger)
        result = diff_ledgers(kernel, oracle)
        assert result.clean, "\n".join(
            divergence.describe() for divergence in result.divergences
        )

    def test_fig3_serial_vs_jobs2_zero_divergence(self):
        from repro.experiments import run_fig3
        from repro.runtime.scheduler import TaskScheduler, use_scheduler

        def ledger_at(jobs):
            with sanitize() as state:
                with TaskScheduler(jobs) as scheduler, \
                        use_scheduler(scheduler):
                    run_fig3(
                        num_caches=16, group_sizes=(2, 8),
                        subset_count=3, seed=9,
                    )
            return state.ledger

        result = diff_ledgers(ledger_at(1), ledger_at(2))
        assert result.clean, "\n".join(
            divergence.describe() for divergence in result.divergences
        )
