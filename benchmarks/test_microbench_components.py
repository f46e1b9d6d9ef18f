"""Micro-benchmarks of the core components.

Classic pytest-benchmark timings (multiple rounds) for the pieces a
downstream user would run in a loop: topology generation, all-pairs
RTT, landmark selection, K-means, and simulator throughput.
"""

import numpy as np
import pytest

from repro.clustering import KMeans
from repro.config import LandmarkConfig, WorkloadConfig, DocumentConfig
from repro.core.schemes import SLScheme
from repro.landmarks import GreedyMaxMinSelector
from repro.probing import Prober
from repro.simulator import simulate
from repro.core.groups import single_group
from repro.topology import build_network
from repro.topology.distance import compute_rtt_matrix
from repro.workload import generate_workload


@pytest.fixture(scope="module")
def network100():
    return build_network(num_caches=100, seed=5)


def test_topology_generation_100_caches(benchmark):
    benchmark(build_network, num_caches=100, seed=5)


def test_rtt_matrix_computation(benchmark, network100):
    graph = network100.graph
    placed = network100.placement.node_routers
    result = benchmark(compute_rtt_matrix, graph, placed)
    assert result.size == 101


def test_greedy_landmark_selection(benchmark, network100):
    config = LandmarkConfig(num_landmarks=25, multiplier=2)

    def run():
        prober = Prober(network100, seed=1)
        return GreedyMaxMinSelector().select(
            prober, config, np.random.default_rng(1)
        )

    landmarks = benchmark(run)
    assert len(landmarks) == 25


def test_kmeans_500x25(benchmark):
    rng = np.random.default_rng(3)
    points = rng.random((500, 25)) * 100
    result = benchmark(lambda: KMeans(k=50).fit(points, seed=3))
    assert result.cluster_sizes().sum() == 500


def test_full_sl_scheme_100_caches(benchmark, network100):
    scheme = SLScheme(
        landmark_config=LandmarkConfig(num_landmarks=25, multiplier=2)
    )
    result = benchmark(scheme.form_groups, network100, 10, 7)
    assert result.num_groups <= 10


def _throughput_workload(network):
    return generate_workload(
        network.cache_nodes,
        WorkloadConfig(
            documents=DocumentConfig(num_documents=300),
            requests_per_cache=100,
        ),
        seed=9,
    )


def test_simulator_throughput(benchmark, network100):
    """Requests per second through the event loop (one giant group,
    worst case for directory sizes).

    This is also the observability layer's no-overhead anchor: the
    default run passes no observer, so any measurable slowdown here
    relative to the seed means the disabled-instrument fast path
    regressed (compare against ``test_simulator_throughput_instrumented``
    for the cost of tracing + sampling).
    """
    workload = _throughput_workload(network100)
    grouping = single_group(network100.cache_nodes)
    result = benchmark(simulate, network100, grouping, workload)
    assert result.metrics.total_requests() > 0


def test_simulator_throughput_sanitized(benchmark, network100):
    """Event loop under the draw-ledger sanitizer (repro.sanitize).

    The acceptance budget is <= 10% over ``test_simulator_throughput``;
    the batch event recorder keeps it near zero.  Disabled cost is
    exactly zero by construction — ``test_sanitize_not_imported_by_hot_
    paths`` proves the hot paths never even import the package.
    """
    from repro.sanitize import sanitize

    workload = _throughput_workload(network100)
    grouping = single_group(network100.cache_nodes)

    def run():
        with sanitize() as state:
            result = simulate(network100, grouping, workload)
        return result, state.ledger

    result, ledger = benchmark(run)
    assert result.metrics.total_requests() > 0
    assert ledger.total_draws() > 0


def test_sanitize_not_imported_by_hot_paths():
    """Flag off => zero overhead: a plain run never loads the sanitizer."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    probe = (
        "import sys\n"
        "from repro.topology import build_network\n"
        "from repro.core.groups import single_group\n"
        "from repro.config import WorkloadConfig, DocumentConfig\n"
        "from repro.workload import generate_workload\n"
        "from repro.simulator import simulate\n"
        "network = build_network(num_caches=20, seed=5)\n"
        "workload = generate_workload(network.cache_nodes,\n"
        "    WorkloadConfig(documents=DocumentConfig(num_documents=50),\n"
        "                   requests_per_cache=10), seed=9)\n"
        "simulate(network, single_group(network.cache_nodes), workload)\n"
        "bad = [m for m in sys.modules if m.startswith('repro.sanitize')]\n"
        "assert not bad, f'hot path imported {bad}'\n"
    )
    subprocess.run(
        [sys.executable, "-c", probe], check=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=str(Path(__file__).resolve().parents[1]),
    )


def test_simulator_throughput_instrumented(benchmark, network100):
    """Same event loop with tracing and sampling enabled — the price of
    full instrumentation, to compare against the uninstrumented run."""
    from repro.obs import MetricsSampler, Observer, TraceCollector

    workload = _throughput_workload(network100)
    grouping = single_group(network100.cache_nodes)

    def run():
        observer = Observer(
            trace=TraceCollector(capacity=10_000),
            sampler=MetricsSampler(interval_ms=1_000.0),
        )
        return simulate(
            network100, grouping, workload, observer=observer
        )

    result = benchmark(run)
    assert len(result.trace) > 0
    assert len(result.timeseries()) > 0


# -- BENCH_engine.json trajectory artifact --------------------------------
#
# Emitted for CI upload: one JSON file recording engine throughput
# (plain and instrumented) and suite wall-clock
# at jobs=1 vs jobs=2, each compared against the committed seed baseline
# in ``benchmarks/baselines/BENCH_engine_seed.json`` so the speedup
# trajectory is tracked across PRs rather than across one noisy run.
# The measurement itself rides on ``repro.bench`` (the same subsystem
# behind ``repro bench run|gate``); the artifact embeds the native
# result under ``bench``, so ``repro bench compare BENCH_engine.json …``
# reads it directly.

import json
from pathlib import Path

_BASELINE_PATH = Path(__file__).parent / "baselines" / "BENCH_engine_seed.json"
_ARTIFACT_PATH = Path("BENCH_engine.json")


def test_emit_bench_engine_artifact():
    """Measure engine + suite throughput and write BENCH_engine.json."""
    from repro.bench import DEFAULT_SCENARIO, LARGE_SCENARIO, run_bench

    baseline = json.loads(_BASELINE_PATH.read_text())

    result = run_bench(
        scenario=DEFAULT_SCENARIO, label="trajectory",
        include_suite=True, suite_jobs=(1, 2),
        extra_scenarios={"large": LARGE_SCENARIO},
    )
    engine = result.engine
    serial = result.suite["jobs1"]
    parallel = result.suite["jobs2"]

    artifact = {
        "baseline": baseline,
        "bench": result.to_dict(),
        "engine": {
            "events": int(engine["events"]),
            "plain_events_per_sec": engine["plain_events_per_sec"],
            "instrumented_events_per_sec": (
                engine["instrumented_events_per_sec"]
            ),
        },
        "engine_1m": {
            "events": int(
                result.scenarios["large"]["engine"]["events"]
            ),
            "plain_events_per_sec": (
                result.scenarios["large"]["engine"]["plain_events_per_sec"]
            ),
        },
        "suite": {
            "wall_s_jobs1": serial["wall_s"],
            "wall_s_jobs2": parallel["wall_s"],
            "events_per_sec_per_core_jobs1": (
                serial["events_per_sec_per_core"]
            ),
            "events_per_sec_per_core_jobs2": (
                parallel["events_per_sec_per_core"]
            ),
            "cache_stats_jobs1": {
                "testbed_cache_hits": int(serial["testbed_cache_hits"]),
                "testbed_cache_misses": int(serial["testbed_cache_misses"]),
            },
            "cache_stats_jobs2": {
                "testbed_cache_hits": int(parallel["testbed_cache_hits"]),
                "testbed_cache_misses": int(parallel["testbed_cache_misses"]),
            },
        },
        "improvement_vs_seed": {
            "suite_wall": baseline["suite_wall_s"] / serial["wall_s"],
            "engine_plain": (
                engine["plain_events_per_sec"]
                / baseline["engine"]["plain_events_per_sec"]
            ),
            "engine_instrumented": (
                engine["instrumented_events_per_sec"]
                / baseline["engine"]["instrumented_events_per_sec"]
            ),
        },
    }
    _ARTIFACT_PATH.write_text(json.dumps(artifact, indent=2) + "\n")

    assert int(engine["events"]) == baseline["engine"]["events"], (
        "event count drifted from the baseline workload; "
        "re-baseline before comparing throughput"
    )
    # The runtime layer's headline claim: the serial suite runs at
    # least 1.5x faster than the seed tree on comparable hardware.
    assert artifact["improvement_vs_seed"]["suite_wall"] >= 1.5
    # Worker telemetry attributed engine events to suite tasks, and the
    # testbed cache did real work at both jobs levels.
    assert serial["events"] > 0
    assert serial["testbed_cache_hits"] > 0
