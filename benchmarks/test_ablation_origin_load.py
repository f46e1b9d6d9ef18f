"""Ablation: origin congestion makes cooperation a capacity story.

With a flat origin processing time, cooperation wins by shortening
paths.  With an M/M/1 congested origin, cooperation *also* keeps the
origin out of its queueing regime — the "cooperative resource
management" motivation from the paper's introduction.  This bench
measures how much extra value cooperation gets under congestion.
"""

import pytest

from benchmarks.conftest import report, shape_check
from repro.analysis.report import ExperimentResult, SeriesResult
from repro.config import LandmarkConfig, SimulationConfig
from repro.core.groups import singleton_groups
from repro.core.schemes import SLScheme
from repro.experiments.base import build_testbed
from repro.simulator import simulate

SETTINGS = ("flat", "congested")


def run_origin_load_sweep(num_caches=80, k=8, seeds=(161, 162)):
    lm = LandmarkConfig(num_landmarks=15, multiplier=2)
    solo = {s: 0.0 for s in SETTINGS}
    grouped = {s: 0.0 for s in SETTINGS}
    for seed in seeds:
        testbed = build_testbed(num_caches, seed)
        grouping = SLScheme(landmark_config=lm).form_groups(
            testbed.network, k, seed=seed
        )
        isolated = singleton_groups(testbed.network.cache_nodes)
        for setting in SETTINGS:
            config = SimulationConfig(
                origin_capacity_rps=120.0 if setting == "congested" else None,
            )
            solo[setting] += simulate(
                testbed.network, isolated, testbed.workload, config
            ).average_latency_ms() / len(seeds)
            grouped[setting] += simulate(
                testbed.network, grouping, testbed.workload, config
            ).average_latency_ms() / len(seeds)
    return ExperimentResult(
        experiment_id="ablation-origin-load",
        x_label="origin_model",
        x_values=SETTINGS,
        series=(
            SeriesResult(
                "no_cooperation_ms", tuple(solo[s] for s in SETTINGS)
            ),
            SeriesResult(
                "sl_groups_ms", tuple(grouped[s] for s in SETTINGS)
            ),
            SeriesResult(
                "cooperation_gain_pct",
                tuple(
                    (solo[s] - grouped[s]) / solo[s] * 100.0
                    for s in SETTINGS
                ),
            ),
        ),
    )


@pytest.fixture(scope="module")
def origin_load_result():
    return run_origin_load_sweep()


def test_origin_load_sweep_benchmark(benchmark):
    result = benchmark.pedantic(
        run_origin_load_sweep,
        kwargs=dict(num_caches=30, k=4, seeds=(161,)),
        rounds=1,
        iterations=1,
    )
    assert result.experiment_id == "ablation-origin-load"


def test_congestion_amplifies_cooperation_gain(
    benchmark, origin_load_result
):
    shape_check(benchmark)
    report(origin_load_result)
    gains = dict(
        zip(
            origin_load_result.x_values,
            origin_load_result.series_named("cooperation_gain_pct").values,
        )
    )
    assert gains["congested"] > gains["flat"]


def test_congestion_hurts_uncooperative_networks_most(
    benchmark, origin_load_result
):
    shape_check(benchmark)
    solo = dict(
        zip(
            origin_load_result.x_values,
            origin_load_result.series_named("no_cooperation_ms").values,
        )
    )
    grouped = dict(
        zip(
            origin_load_result.x_values,
            origin_load_result.series_named("sl_groups_ms").values,
        )
    )
    solo_penalty = solo["congested"] / solo["flat"]
    grouped_penalty = grouped["congested"] / grouped["flat"]
    assert solo_penalty > grouped_penalty
