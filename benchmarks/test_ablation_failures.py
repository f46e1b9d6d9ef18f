"""Ablation: lookup-protocol resilience to cache failures.

The beacon protocol concentrates lookup knowledge on one hash-chosen
member per document — a single point of failure per hash range — while
multicast degrades gracefully (a down peer just never replies).  This
bench crashes a fraction of the caches mid-run and measures how each
protocol's latency degrades.
"""

import numpy as np
import pytest

from benchmarks.conftest import report, shape_check
from repro.analysis.report import ExperimentResult, SeriesResult
from repro.config import LandmarkConfig
from repro.core.schemes import SLScheme
from repro.experiments.base import build_testbed
from repro.faults import FaultSchedule
from repro.simulator import simulate

MODES = ("beacon", "multicast", "directory")


def run_failure_sweep(num_caches=80, k=8, fail_fraction=0.15, seeds=(131, 132)):
    lm = LandmarkConfig(num_landmarks=15, multiplier=2)
    healthy = {m: 0.0 for m in MODES}
    degraded = {m: 0.0 for m in MODES}
    for seed in seeds:
        testbed = build_testbed(num_caches, seed)
        grouping = SLScheme(landmark_config=lm).form_groups(
            testbed.network, k, seed=seed
        )
        # Crash a fraction of caches one third into the run.
        rng = np.random.default_rng(seed)
        victims = rng.choice(
            testbed.network.cache_nodes,
            size=max(1, int(fail_fraction * num_caches)),
            replace=False,
        )
        fail_at = testbed.workload.horizon_ms / 3.0
        faults = FaultSchedule(
            crashes=tuple((fail_at, int(v)) for v in victims)
        )
        for mode in MODES:
            healthy[mode] += simulate(
                testbed.network, grouping, testbed.workload,
                group_protocol_mode=mode,
            ).average_latency_ms() / len(seeds)
            degraded[mode] += simulate(
                testbed.network, grouping, testbed.workload,
                group_protocol_mode=mode, faults=faults,
            ).average_latency_ms() / len(seeds)
    return ExperimentResult(
        experiment_id="ablation-failures",
        x_label="protocol",
        x_values=MODES,
        series=(
            SeriesResult("healthy_ms", tuple(healthy[m] for m in MODES)),
            SeriesResult("degraded_ms", tuple(degraded[m] for m in MODES)),
            SeriesResult(
                "degradation_pct",
                tuple(
                    (degraded[m] - healthy[m]) / healthy[m] * 100.0
                    for m in MODES
                ),
            ),
        ),
    )


@pytest.fixture(scope="module")
def failure_result():
    return run_failure_sweep()


def test_failure_sweep_benchmark(benchmark):
    result = benchmark.pedantic(
        run_failure_sweep,
        kwargs=dict(num_caches=30, k=4, seeds=(131,)),
        rounds=1,
        iterations=1,
    )
    assert result.experiment_id == "ablation-failures"


def test_failures_degrade_every_protocol(benchmark, failure_result):
    shape_check(benchmark)
    report(failure_result)
    degradation = failure_result.series_named("degradation_pct").values
    assert all(d > 0 for d in degradation)


def test_degradation_bounded(benchmark, failure_result):
    """Losing 15% of caches must not blow latency up disproportionately
    (graceful degradation: bounded by ~2x the healthy latency)."""
    shape_check(benchmark)
    healthy = failure_result.series_named("healthy_ms").values
    degraded = failure_result.series_named("degraded_ms").values
    for h, d in zip(healthy, degraded):
        assert d < 2.0 * h
