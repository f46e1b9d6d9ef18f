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
