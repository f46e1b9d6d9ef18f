"""Ablation: probe-noise and probe-count sensitivity of the SL pipeline.

Feature vectors are built from noisy averaged probes; this bench maps
clustering accuracy against jitter magnitude and probe count, verifying
that averaging buys back accuracy lost to jitter.
"""

import pytest

from benchmarks.conftest import report, shape_check
from repro.analysis.gicost import average_group_interaction_cost
from repro.analysis.report import ExperimentResult, SeriesResult
from repro.config import LandmarkConfig, ProbeConfig
from repro.core.schemes import SLScheme
from repro.topology import build_network

JITTERS = (0.0, 0.05, 0.15, 0.35)


def run_noise_sweep(num_caches=120, k=12, seeds=(61, 62, 63)):
    lm = LandmarkConfig(num_landmarks=12, multiplier=2)
    single_probe = []
    averaged = []
    for jitter in JITTERS:
        totals = {1: 0.0, 7: 0.0}
        for seed in seeds:
            network = build_network(num_caches=num_caches, seed=seed)
            for count in (1, 7):
                scheme = SLScheme(
                    landmark_config=lm,
                    probe_config=ProbeConfig(
                        probe_count=count, jitter_std=jitter
                    ),
                )
                grouping = scheme.form_groups(network, k, seed=seed)
                totals[count] += average_group_interaction_cost(
                    network, grouping
                )
        single_probe.append(totals[1] / len(seeds))
        averaged.append(totals[7] / len(seeds))
    return ExperimentResult(
        experiment_id="ablation-probe-noise",
        x_label="jitter_std",
        x_values=JITTERS,
        series=(
            SeriesResult("gicost_1_probe_ms", tuple(single_probe)),
            SeriesResult("gicost_7_probes_ms", tuple(averaged)),
        ),
    )


@pytest.fixture(scope="module")
def noise_result():
    return run_noise_sweep()


def test_noise_sweep_benchmark(benchmark):
    result = benchmark.pedantic(
        run_noise_sweep,
        kwargs=dict(num_caches=40, k=5, seeds=(61,)),
        rounds=1,
        iterations=1,
    )
    assert result.experiment_id == "ablation-probe-noise"


def test_heavy_noise_hurts_single_probe_accuracy(benchmark, noise_result):
    shape_check(benchmark)
    report(noise_result)
    single = noise_result.series_named("gicost_1_probe_ms").values
    assert single[-1] > single[0]


def test_averaging_mitigates_noise(benchmark, noise_result):
    """At the heaviest jitter, 7-probe averaging beats single probes."""
    shape_check(benchmark)
    single = noise_result.series_named("gicost_1_probe_ms").values
    averaged = noise_result.series_named("gicost_7_probes_ms").values
    assert averaged[-1] < single[-1]


def test_noise_free_baseline_consistent(benchmark, noise_result):
    """With zero jitter, probe count is irrelevant."""
    shape_check(benchmark)
    single = noise_result.series_named("gicost_1_probe_ms").values
    averaged = noise_result.series_named("gicost_7_probes_ms").values
    assert averaged[0] == pytest.approx(single[0], rel=0.05)
