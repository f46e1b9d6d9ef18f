"""Ablation: K-means seeding — uniform vs k-means++ vs SDSL-biased.

Separates how much of SDSL's latency benefit comes from *better-spread
seeds in feature space* (which k-means++ also provides) versus from
*server-distance information* (which only SDSL has).
"""

import pytest

from benchmarks.conftest import report, shape_check
from repro.analysis.report import ExperimentResult, SeriesResult
from repro.clustering import KMeansPlusPlusInit
from repro.config import LandmarkConfig, SDSLConfig
from repro.core.coordinator import GFCoordinator
from repro.core.schemes import SDSLScheme, SLScheme
from repro.experiments.base import build_testbed, run_simulation
from repro.landmarks import GreedyMaxMinSelector

INITS = ("uniform", "kmeans++", "sdsl")


def run_init_sweep(num_caches=100, k=15, seeds=(81, 82, 83)):
    lm = LandmarkConfig(num_landmarks=15, multiplier=2)
    latencies = {name: 0.0 for name in INITS}
    for seed in seeds:
        testbed = build_testbed(num_caches, seed)

        sl = SLScheme(landmark_config=lm)
        grouping = sl.form_groups(testbed.network, k, seed=seed)
        latencies["uniform"] += run_simulation(
            testbed, grouping
        ).average_latency_ms() / len(seeds)

        # k-means++ via the coordinator with a custom initializer.
        coordinator = GFCoordinator(testbed.network, seed=seed)
        landmarks = coordinator.choose_landmarks(GreedyMaxMinSelector(), lm)
        features = coordinator.build_features(landmarks)
        pp_grouping = coordinator.cluster(
            features, k, scheme_name="kmeans++",
            initializer=KMeansPlusPlusInit(),
        )
        latencies["kmeans++"] += run_simulation(
            testbed, pp_grouping
        ).average_latency_ms() / len(seeds)

        sdsl = SDSLScheme(
            sdsl_config=SDSLConfig(theta=2.0), landmark_config=lm
        )
        sdsl_grouping = sdsl.form_groups(testbed.network, k, seed=seed)
        latencies["sdsl"] += run_simulation(
            testbed, sdsl_grouping
        ).average_latency_ms() / len(seeds)

    return ExperimentResult(
        experiment_id="ablation-kmeans-init",
        x_label="initializer",
        x_values=INITS,
        series=(
            SeriesResult(
                "latency_ms", tuple(latencies[name] for name in INITS)
            ),
        ),
    )


@pytest.fixture(scope="module")
def init_result():
    return run_init_sweep()


def test_init_sweep_benchmark(benchmark):
    result = benchmark.pedantic(
        run_init_sweep,
        kwargs=dict(num_caches=40, k=6, seeds=(81,)),
        rounds=1,
        iterations=1,
    )
    assert result.experiment_id == "ablation-kmeans-init"


def test_sdsl_beats_spread_only_seeding(benchmark, init_result):
    """Server-distance info matters beyond mere seed spread: SDSL at or
    below k-means++ on average latency."""
    shape_check(benchmark)
    report(init_result)
    latencies = dict(
        zip(
            init_result.x_values,
            init_result.series_named("latency_ms").values,
        )
    )
    assert latencies["sdsl"] <= latencies["kmeans++"] * 1.03


def test_sdsl_beats_uniform(benchmark, init_result):
    shape_check(benchmark)
    latencies = dict(
        zip(
            init_result.x_values,
            init_result.series_named("latency_ms").values,
        )
    )
    assert latencies["sdsl"] < latencies["uniform"]
