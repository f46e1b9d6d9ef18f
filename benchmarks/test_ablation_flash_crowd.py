"""Ablation: flash crowds and the value of cooperation.

Under a steady workload, cooperation saves a fixed share of origin
trips.  Under a flash crowd hitting a congested origin, every saved
origin trip also keeps the origin's queue shorter *exactly when demand
peaks* — so the cooperation gain grows both with burstiness and with
congestion modelling.
"""

import pytest

from benchmarks.conftest import report, shape_check
from repro.analysis.report import ExperimentResult, SeriesResult
from repro.config import (
    DocumentConfig,
    LandmarkConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.core.groups import singleton_groups
from repro.core.schemes import SLScheme
from repro.simulator import simulate
from repro.topology import build_network
from repro.workload.flash_crowd import (
    FlashCrowdConfig,
    generate_flash_crowd_workload,
)

SETTINGS = ("steady", "flash_crowd", "flash_crowd+queueing")


def run_flash_crowd_sweep(num_caches=80, k=8, seeds=(181, 182)):
    lm = LandmarkConfig(num_landmarks=15, multiplier=2)
    workload_config = WorkloadConfig(
        documents=DocumentConfig(num_documents=400),
        requests_per_cache=150,
    )
    gains = {s: 0.0 for s in SETTINGS}
    for seed in seeds:
        network = build_network(num_caches=num_caches, seed=seed)
        grouping = SLScheme(landmark_config=lm).form_groups(
            network, k, seed=seed
        )
        isolated = singleton_groups(network.cache_nodes)
        for setting in SETTINGS:
            if setting == "steady":
                crowd = FlashCrowdConfig(peak_factor=1.0)
            else:
                crowd = FlashCrowdConfig(peak_factor=8.0)
            workload = generate_flash_crowd_workload(
                network.cache_nodes,
                workload_config,
                crowd,
                duration_ms=60_000.0,
                seed=seed,
            )
            config = SimulationConfig(
                origin_capacity_rps=(
                    150.0 if setting.endswith("queueing") else None
                ),
            )
            solo = simulate(
                network, isolated, workload, config
            ).average_latency_ms()
            grouped = simulate(
                network, grouping, workload, config
            ).average_latency_ms()
            gains[setting] += (solo - grouped) / solo * 100.0 / len(seeds)
    return ExperimentResult(
        experiment_id="ablation-flash-crowd",
        x_label="scenario",
        x_values=SETTINGS,
        series=(
            SeriesResult(
                "cooperation_gain_pct",
                tuple(gains[s] for s in SETTINGS),
            ),
        ),
    )


@pytest.fixture(scope="module")
def flash_result():
    return run_flash_crowd_sweep()


def test_flash_crowd_sweep_benchmark(benchmark):
    result = benchmark.pedantic(
        run_flash_crowd_sweep,
        kwargs=dict(num_caches=30, k=4, seeds=(181,)),
        rounds=1,
        iterations=1,
    )
    assert result.experiment_id == "ablation-flash-crowd"


def test_cooperation_always_pays(benchmark, flash_result):
    shape_check(benchmark)
    report(flash_result)
    gains = flash_result.series_named("cooperation_gain_pct").values
    assert all(g > 0 for g in gains)


def test_congested_flash_crowd_pays_most(benchmark, flash_result):
    shape_check(benchmark)
    gains = dict(
        zip(
            flash_result.x_values,
            flash_result.series_named("cooperation_gain_pct").values,
        )
    )
    assert gains["flash_crowd+queueing"] > gains["steady"]
