"""Ablation: SDSL's theta sensitivity.

Sweeps the server-distance sensitivity exponent.  theta=0 is exactly
SL-style uniform seeding; the bench documents the calibration that made
theta=2 the library default and checks that extreme theta does not
collapse the scheme.
"""

import pytest

from benchmarks.conftest import report, shape_check
from repro.analysis.report import ExperimentResult, SeriesResult
from repro.config import SDSLConfig
from repro.core.schemes import SDSLScheme
from repro.experiments.base import (
    build_testbed,
    landmark_config,
    run_simulation,
)

THETAS = (0.0, 0.5, 1.0, 2.0, 4.0)


def run_theta_sweep(num_caches=100, k=15, seeds=(41, 42, 43)):
    lm = landmark_config(25, num_caches=num_caches)
    latencies = []
    for theta in THETAS:
        total = 0.0
        for seed in seeds:
            testbed = build_testbed(num_caches, seed)
            scheme = SDSLScheme(
                sdsl_config=SDSLConfig(theta=theta), landmark_config=lm
            )
            grouping = scheme.form_groups(testbed.network, k, seed=seed)
            total += run_simulation(testbed, grouping).average_latency_ms()
        latencies.append(total / len(seeds))
    return ExperimentResult(
        experiment_id="ablation-theta",
        x_label="theta",
        x_values=THETAS,
        series=(SeriesResult("latency_ms", tuple(latencies)),),
    )


@pytest.fixture(scope="module")
def theta_result():
    return run_theta_sweep()


def test_theta_sweep_benchmark(benchmark):
    result = benchmark.pedantic(
        run_theta_sweep,
        kwargs=dict(num_caches=40, k=6, seeds=(41,)),
        rounds=1,
        iterations=1,
    )
    assert result.experiment_id == "ablation-theta"


def test_moderate_theta_beats_uniform(benchmark, theta_result):
    """Some positive theta improves on theta=0 (the SL degenerate)."""
    shape_check(benchmark)
    report(theta_result)
    series = theta_result.series_named("latency_ms").values
    uniform = series[0]
    best_positive = min(series[1:])
    assert best_positive < uniform


def test_extreme_theta_not_catastrophic(benchmark, theta_result):
    """theta=4 may over-concentrate centers but stays within 25% of
    the best setting (K-means iterations repair the extremes)."""
    shape_check(benchmark)
    series = theta_result.series_named("latency_ms").values
    assert series[-1] < min(series) * 1.25
