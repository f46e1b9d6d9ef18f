"""Ablation: position representation — feature vectors vs GNP vs Vivaldi.

Extends the paper's Figure 7 comparison with the decentralised Vivaldi
coordinates the related-work section cites: how much clustering
accuracy does each representation deliver, and at what probing cost?
"""

import pytest

from benchmarks.conftest import report, shape_check
from repro.analysis.gicost import average_group_interaction_cost
from repro.analysis.report import ExperimentResult, SeriesResult
from repro.config import GNPConfig, LandmarkConfig
from repro.core.schemes import EuclideanGNPScheme, SLScheme, VivaldiScheme

REPRESENTATIONS = ("feature-vectors", "gnp", "vivaldi")


def run_representation_sweep(num_caches=100, k=10, seeds=(151, 152)):
    from repro.topology import build_network

    lm = LandmarkConfig(num_landmarks=15, multiplier=2)
    costs = {r: 0.0 for r in REPRESENTATIONS}
    for seed in seeds:
        network = build_network(num_caches=num_caches, seed=seed)
        schemes = {
            "feature-vectors": SLScheme(landmark_config=lm),
            "gnp": EuclideanGNPScheme(
                gnp_config=GNPConfig(dimensions=5), landmark_config=lm
            ),
            "vivaldi": VivaldiScheme(dimensions=5, rounds=20),
        }
        for name, scheme in schemes.items():
            grouping = scheme.form_groups(network, k, seed=seed)
            costs[name] += average_group_interaction_cost(
                network, grouping
            ) / len(seeds)
    return ExperimentResult(
        experiment_id="ablation-representation",
        x_label="representation",
        x_values=REPRESENTATIONS,
        series=(
            SeriesResult(
                "gicost_ms", tuple(costs[r] for r in REPRESENTATIONS)
            ),
        ),
    )


@pytest.fixture(scope="module")
def representation_result():
    return run_representation_sweep()


def test_representation_sweep_benchmark(benchmark):
    result = benchmark.pedantic(
        run_representation_sweep,
        kwargs=dict(num_caches=40, k=5, seeds=(151,)),
        rounds=1,
        iterations=1,
    )
    assert result.experiment_id == "ablation-representation"


def test_feature_vectors_competitive(benchmark, representation_result):
    """The paper's cheap representation is within 15% of the best."""
    shape_check(benchmark)
    report(representation_result)
    costs = dict(
        zip(
            representation_result.x_values,
            representation_result.series_named("gicost_ms").values,
        )
    )
    assert costs["feature-vectors"] <= min(costs.values()) * 1.15


def test_vivaldi_usable_but_noisier(benchmark, representation_result):
    """Decentralised coordinates work, within 2x of feature vectors."""
    shape_check(benchmark)
    costs = dict(
        zip(
            representation_result.x_values,
            representation_result.series_named("gicost_ms").values,
        )
    )
    assert costs["vivaldi"] < costs["feature-vectors"] * 2.0
