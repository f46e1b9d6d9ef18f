"""Bit-identity of the event kernel against the reference oracle.

The columnar slice kernel (:mod:`repro.simulator.batched`) is a pure
performance rewrite of the per-event oracle
(:func:`repro.simulator.engine.run_reference`) for the one cache model
it runs (:func:`repro.simulator.engine.runs_on_kernel`): every metric,
trace record, sample, archived figure byte, and sanitize-ledger digest
must equal the oracle's exactly — not approximately — and so must the
post-run state the kernel writes inline.  A fixed matrix of
hand-picked configurations and two hypothesis differential fuzzes —
one over generated caches, documents, popularity, update rates,
groups, capacities, warm-ups and instrumentation, one pinned to the
write-heavy inline update path — pin that contract; further fixed
tests carry it through the figure and sanitize layers that consume the
engine.  The matrix's other modes (replacement, consistency, protocol,
origin load, placement, faults) must dispatch to the oracle.

Tests run the oracle by swapping it in for the kernel with
``monkeypatch.setattr(repro.simulator.engine, "run_batched",
run_reference)``; the engine has no user-facing loop switch.
"""

import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simulator.batched as batched_module
import repro.simulator.engine as engine_module
import repro.simulator.replacement as replacement_module
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
from repro.simulator import SimulationEngine, simulate
from repro.simulator.engine import run_reference
from repro.simulator.replacement import SPILL_AT
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
    heap-score policy's heap, pending tuples and spilled column are
    compared exactly, as lists: both loops defer pushes by the
    policy's one rule, so they leave the same array layout behind.
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
            if key in ("heap", "pending", "spilled"):
                value = list(value)
            else:
                value = list(value.items())
            policy.append([key, repr(value)])
        rows.append([node, cache.used_bytes, records, policy])
    rows.append([
        [doc, [[group, sorted(held)] for group, held in by_group.items()]]
        for doc, by_group in engine.protocol.hot_state()["holders"].items()
    ])
    return json.dumps(rows)


def kernel_and_oracle(run, loop="run_batched"):
    """``run()`` once as the engine dispatches it, then once with the
    oracle swapped in for the kernel.

    Every engine run of the first pass must take ``loop``: the kernel
    for the paper's cache model, ``run_reference`` for every other
    mode (whose two passes then run the same loop).
    """
    taken = []

    def spy(name):
        real = getattr(engine_module, name)

        def spying(engine):
            taken.append(name)
            return real(engine)

        return spying

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "run_batched", spy("run_batched"))
        patch.setattr(engine_module, "run_reference", spy("run_reference"))
        first = run()
    assert taken and set(taken) == {loop}, taken
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "run_batched", run_reference)
        oracle = run()
    return first, oracle


def faults_for(network, workload):
    horizon = workload.horizon_ms
    nodes = network.cache_nodes
    return FaultSchedule(
        crashes=((horizon * 0.2, nodes[4]), (horizon * 0.3, nodes[7])),
        recoveries=((horizon * 0.7, nodes[4]), (horizon * 0.8, nodes[7])),
        partitions=(
            PartitionSpec(
                horizon * 0.4, horizon * 0.6, nodes=tuple(nodes[:6])
            ),
        ),
    )


#: Each configuration and the loop ``SimulationEngine.run`` gives it
#: without faults: the kernel runs only the default cache model.
ALL_CONFIGS = [
    pytest.param(SimulationConfig(), "run_batched", id="default"),
    pytest.param(
        SimulationConfig(consistency_mode="ttl", ttl_ms=1_500.0),
        "run_reference",
        id="ttl",
    ),
    pytest.param(
        SimulationConfig(
            cache=CacheConfig(placement_rtt_threshold_ms=15.0)
        ),
        "run_reference",
        id="coop-placement",
    ),
    pytest.param(
        SimulationConfig(origin_capacity_rps=150.0),
        "run_reference",
        id="origin-queueing",
    ),
    pytest.param(
        SimulationConfig(cache=CacheConfig(replacement_policy="lru")),
        "run_reference",
        id="lru",
    ),
    pytest.param(
        SimulationConfig(cache=CacheConfig(replacement_policy="lfu")),
        "run_reference",
        id="lfu",
    ),
]


class TestMetricsEquivalence:
    """Hand-picked configurations on a fixed testbed: kernel vs oracle
    for the paper's cache model, dispatch to the oracle for the rest."""

    @pytest.mark.parametrize("config, loop", ALL_CONFIGS)
    def test_plain(self, testbed, config, loop):
        network, workload, grouping = testbed
        kernel, oracle = kernel_and_oracle(
            lambda: fingerprint(
                simulate(network, grouping, workload, config).metrics
            ),
            loop,
        )
        assert kernel == oracle

    @pytest.mark.parametrize("config, loop", ALL_CONFIGS)
    def test_with_failures_and_partitions(self, testbed, config, loop):
        """Any fault schedule sends the run to the oracle."""
        network, workload, grouping = testbed
        faults = faults_for(network, workload)
        kernel_and_oracle(
            lambda: simulate(
                network, grouping, workload, config, faults=faults,
            ),
            "run_reference",
        )

    @pytest.mark.parametrize(
        "mode, loop",
        [
            ("beacon", "run_batched"),
            ("directory", "run_reference"),
            ("multicast", "run_reference"),
        ],
        ids=["beacon", "directory", "multicast"],
    )
    def test_protocol_modes(self, testbed, mode, loop):
        network, workload, grouping = testbed
        kernel, oracle = kernel_and_oracle(
            lambda: fingerprint(
                simulate(
                    network, grouping, workload, group_protocol_mode=mode
                ).metrics
            ),
            loop,
        )
        assert kernel == oracle


# -- the differential fuzz ------------------------------------------------


@lru_cache(maxsize=None)
def fuzz_network(num_caches):
    return build_network(num_caches=num_caches, seed=7)


def draw_scenario(data, write_heavy=False):
    """Everything one differential run needs, drawn piece by piece.

    Every draw is a configuration the kernel runs (the defaults of
    every mode, no faults).  ``write_heavy`` pins the kernel's inline
    update barrier: a mostly dynamic catalog and frequent updates.
    """
    network = fuzz_network(
        data.draw(st.sampled_from([2, 4, 8, 12, 16]), label="caches")
    )
    nodes = network.cache_nodes
    workload = generate_workload(
        nodes,
        WorkloadConfig(
            documents=DocumentConfig(
                num_documents=data.draw(
                    st.integers(1, 120), label="documents"
                ),
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
            zipf_alpha=data.draw(
                st.sampled_from([0.3, 0.9, 1.6]), label="zipf"
            ),
            # Down to a millisecond or two between updates: slices of
            # a request or two (or none) between barriers.
            mean_update_interarrival_ms=data.draw(
                st.sampled_from(
                    [1.0, 5.0, 40.0] if write_heavy
                    else [1.0, 5.0, 40.0, 400.0, 5_000.0]
                ),
                label="update gap ms",
            ),
        ),
        seed=data.draw(st.integers(0, 2**16), label="seed"),
    )
    num_groups = data.draw(st.integers(1, 6), label="groups")
    grouping = GroupingResult(
        scheme="fuzz",
        groups=groups_from_labels(nodes, [n % num_groups for n in nodes]),
    )
    config = SimulationConfig(
        cache=CacheConfig(
            # The smallest fractions hold only a few documents (or
            # none), forcing evictions and rejected admissions.
            capacity_fraction=data.draw(
                st.sampled_from([0.001, 0.01, 0.05, 0.2, 0.5, 1.0]),
                label="capacity",
            ),
        ),
        warmup_fraction=data.draw(
            st.sampled_from([0.0, 0.1, 0.5, 0.9]), label="warmup"
        ),
    )
    trace_capacity = data.draw(
        st.sampled_from(["off", "unbounded", 1, 7, 60]), label="trace"
    )
    sample_ms = data.draw(
        st.sampled_from([None, 5.0, 25.0, 1_000.0]), label="sample ms"
    )
    return dict(
        network=network, workload=workload, grouping=grouping,
        config=config, trace_capacity=trace_capacity, sample_ms=sample_ms,
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
            scenario["workload"], scenario["config"], observer=observer,
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


def spill_flushes(monkeypatch):
    """Record the entries each spilled-column flush pushes, in either loop."""
    rebuilt = []
    push_spilled = replacement_module.push_spilled

    def recording(heap, spilled, doc_of=int):
        before = set(map(id, heap))
        push_spilled(heap, spilled, doc_of)
        rebuilt.extend(entry for entry in heap if id(entry) not in before)

    monkeypatch.setattr(batched_module, "push_spilled", recording)
    monkeypatch.setattr(replacement_module, "push_spilled", recording)
    return rebuilt


@pytest.mark.parametrize(
    "policy, loop",
    [("utility", "run_batched"), ("lfu", "run_reference")],
    ids=["utility", "lfu"],
)
def test_spilled_entries_flush_before_the_first_eviction(policy, loop):
    """A cache that makes more than ``SPILL_AT`` pushes before its first
    eviction: the kernel flushes the spilled column ahead of the pending
    tuples exactly as the policy's ``select_victim`` does, so every
    output and the post-run heaps, lists and columns agree.  LFU runs
    on the oracle, where the policy's own flush does the same."""
    network = fuzz_network(4)
    workload = generate_workload(
        network.cache_nodes,
        WorkloadConfig(
            documents=DocumentConfig(num_documents=600, dynamic_fraction=0.6),
            requests_per_cache=900,
            zipf_alpha=0.3,
            mean_update_interarrival_ms=40.0,
        ),
        seed=3,
    )
    nodes = network.cache_nodes
    scenario = dict(
        network=network, workload=workload,
        grouping=GroupingResult(
            scheme="test", groups=groups_from_labels(nodes, [0] * len(nodes))
        ),
        config=SimulationConfig(
            cache=CacheConfig(capacity_fraction=0.3, replacement_policy=policy),
            warmup_fraction=0.0,
        ),
        trace_capacity="off", sample_ms=None,
    )
    with pytest.MonkeyPatch.context() as patch:
        rebuilt = spill_flushes(patch)
        kernel, oracle = kernel_and_oracle(
            lambda: observed_run(scenario, trace_path=None), loop
        )
    # Only a cache that spilled before evicting flushes the column.
    assert len(rebuilt) > 2 * SPILL_AT
    assert kernel == oracle


def test_requests_share_one_doc_id_int_per_document(monkeypatch):
    """The kernel reads request doc ids through one shared int per
    document, so the heap entries, pending tuples and cache records
    that requests make hold no int object of their own (ids above 256
    are not interned) — heap entries rebuilt from the spilled column
    included."""
    network = build_network(num_caches=8, seed=5)
    workload = generate_workload(
        network.cache_nodes,
        WorkloadConfig(
            documents=DocumentConfig(num_documents=600, dynamic_fraction=0.0),
            requests_per_cache=1000,
            zipf_alpha=0.3,
        ),
        seed=5,
    )
    nodes = network.cache_nodes
    grouping = GroupingResult(
        scheme="test", groups=groups_from_labels(nodes, [0] * len(nodes))
    )
    engine = SimulationEngine(
        network, grouping, workload,
        SimulationConfig(
            warmup_fraction=0.0, cache=CacheConfig(capacity_fraction=0.5)
        ),
    )
    rebuilt = spill_flushes(monkeypatch)
    engine.run()
    objects = {}
    entries = list(rebuilt)
    for node in nodes:
        state = engine.cache(node).policy.hot_state()
        entries += state["heap"] + state["pending"]
        for doc in engine.cache(node).store.docs[node]:
            objects.setdefault(doc, set()).add(id(doc))
    for _, _, doc in entries:
        objects.setdefault(doc, set()).add(id(doc))
    assert max(doc for _, _, doc in rebuilt) > 256
    assert all(len(ids) == 1 for ids in objects.values())


@pytest.mark.parametrize("policy", ["utility", "lfu"])
def test_deferred_entries_stay_packed_without_evictions(policy):
    """A write-heavy run that never evicts reads no heap, so each
    heap-score policy keeps every entry deferred: at most ``SPILL_AT``
    tuples, the rest packed three floats to an entry, one entry per
    touch (every request is a local hit or an admission here)."""
    network = fuzz_network(4)
    workload = generate_workload(
        network.cache_nodes,
        WorkloadConfig(
            documents=DocumentConfig(num_documents=60, dynamic_fraction=0.9),
            requests_per_cache=700,
            mean_update_interarrival_ms=20.0,
        ),
        seed=9,
    )
    nodes = network.cache_nodes
    grouping = GroupingResult(
        scheme="test", groups=groups_from_labels(nodes, [0] * len(nodes))
    )
    engine = SimulationEngine(
        network, grouping, workload,
        SimulationConfig(
            cache=CacheConfig(capacity_fraction=1.0, replacement_policy=policy),
            warmup_fraction=0.0,
        ),
    )
    metrics = engine.run()
    assert metrics.invalidation_messages > 0
    for node in nodes:
        stats = metrics.cache_stats(node)
        touches = stats.local_hits + stats.group_hits + stats.origin_fetches
        state = engine.cache(node).policy.hot_state()
        assert touches > SPILL_AT
        assert len(state["pending"]) <= SPILL_AT
        assert state["heap"] == []
        assert len(state["pending"]) + len(state["spilled"]) // 3 == touches


# -- fixed layers on top of the engine ------------------------------------


class TestInstrumentedEquivalence:
    """Trace and sample output, kernel vs oracle; a run under
    ``faults_for``'s crashes, recoveries and partition (down-cache
    ``origin_fetch`` rows in the output) dispatches to the oracle."""

    def run(self, testbed, capacity=None, faulted=False, config=None):
        network, workload, grouping = testbed
        trace = (
            TraceCollector(capacity=capacity)
            if capacity
            else TraceCollector()
        )
        observer = Observer(
            trace=trace, sampler=MetricsSampler(interval_ms=500.0)
        )
        faults = faults_for(network, workload) if faulted else None
        result = simulate(
            network, grouping, workload, config, observer=observer,
            faults=faults,
        )
        return result, trace

    @pytest.mark.parametrize(
        "capacity, faulted, loop",
        [
            (None, False, "run_batched"),
            (300, False, "run_batched"),
            (None, True, "run_reference"),
        ],
        ids=["None", "300", "faulted"],
    )
    def test_trace_jsonl_is_byte_identical(
        self, testbed, tmp_path, capacity, faulted, loop
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

        kernel, oracle = kernel_and_oracle(jsonl, loop)
        assert kernel == oracle

    def test_sampled_series_is_identical(self, testbed):
        """Plain, and with caches small enough to evict on most misses."""
        def series():
            return [
                json.dumps(
                    self.run(testbed, config=config)[0]
                    .timeseries().to_dict(),
                    sort_keys=True,
                )
                for config in (
                    None,
                    SimulationConfig(
                        cache=CacheConfig(capacity_fraction=0.01)
                    ),
                )
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

        def ledger():
            with sanitize() as state:
                simulate(network, grouping, workload)
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
