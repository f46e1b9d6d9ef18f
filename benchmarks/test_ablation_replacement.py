"""Ablation: replacement policy (utility vs LRU vs LFU).

The paper's caches implement Cache Clouds' utility-based replacement;
this bench quantifies what that buys over classic policies under the
dynamic-content workload (where invalidation-awareness matters).
"""

import pytest

from benchmarks.conftest import report, shape_check
from repro.analysis.report import ExperimentResult, SeriesResult
from repro.config import CacheConfig, LandmarkConfig, SimulationConfig
from repro.core.schemes import SLScheme
from repro.experiments.base import build_testbed, run_simulation

POLICIES = ("utility", "lru", "lfu")


def run_policy_sweep(num_caches=100, k=10, seeds=(71, 72, 73)):
    lm = LandmarkConfig(num_landmarks=15, multiplier=2)
    latencies = {p: 0.0 for p in POLICIES}
    hit_rates = {p: 0.0 for p in POLICIES}
    for seed in seeds:
        testbed = build_testbed(num_caches, seed)
        grouping = SLScheme(landmark_config=lm).form_groups(
            testbed.network, k, seed=seed
        )
        for policy in POLICIES:
            config = SimulationConfig(
                cache=CacheConfig(replacement_policy=policy)
            )
            result = run_simulation(testbed, grouping, config=config)
            latencies[policy] += result.average_latency_ms() / len(seeds)
            hit_rates[policy] += (
                1 - result.hit_rates()["origin"]
            ) / len(seeds)
    return ExperimentResult(
        experiment_id="ablation-replacement",
        x_label="policy",
        x_values=POLICIES,
        series=(
            SeriesResult(
                "latency_ms", tuple(latencies[p] for p in POLICIES)
            ),
            SeriesResult(
                "total_hit_rate", tuple(hit_rates[p] for p in POLICIES)
            ),
        ),
    )


@pytest.fixture(scope="module")
def policy_result():
    return run_policy_sweep()


def test_policy_sweep_benchmark(benchmark):
    result = benchmark.pedantic(
        run_policy_sweep,
        kwargs=dict(num_caches=40, k=5, seeds=(71,)),
        rounds=1,
        iterations=1,
    )
    assert result.experiment_id == "ablation-replacement"


def test_utility_policy_competitive(benchmark, policy_result):
    """Utility-based replacement is at or near the best policy."""
    shape_check(benchmark)
    report(policy_result)
    latencies = dict(
        zip(
            policy_result.x_values,
            policy_result.series_named("latency_ms").values,
        )
    )
    assert latencies["utility"] <= min(latencies.values()) * 1.08


def test_all_policies_achieve_hits(benchmark, policy_result):
    shape_check(benchmark)
    rates = policy_result.series_named("total_hit_rate").values
    assert all(r > 0.2 for r in rates)
