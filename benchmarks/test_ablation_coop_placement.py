"""Ablation: cooperative placement on/off.

Skipping local duplicates of documents a near peer already holds trades
local hits for (cheap) group hits while freeing capacity for documents
nobody nearby has.  This bench quantifies whether the trade pays off
under the default workload.
"""

import pytest

from benchmarks.conftest import report, shape_check
from repro.analysis.report import ExperimentResult, SeriesResult
from repro.config import CacheConfig, LandmarkConfig, SimulationConfig
from repro.core.schemes import SLScheme
from repro.experiments.base import build_testbed, run_simulation

SETTINGS = ("off", "threshold_5ms", "threshold_15ms", "threshold_40ms")


def _config(setting: str) -> SimulationConfig:
    threshold = None
    if setting != "off":
        threshold = float(setting.split("_")[1].rstrip("ms"))
    return SimulationConfig(
        cache=CacheConfig(placement_rtt_threshold_ms=threshold)
    )


def run_placement_sweep(num_caches=80, k=8, seeds=(121, 122)):
    lm = LandmarkConfig(num_landmarks=15, multiplier=2)
    latency = {s: 0.0 for s in SETTINGS}
    local_share = {s: 0.0 for s in SETTINGS}
    group_share = {s: 0.0 for s in SETTINGS}
    for seed in seeds:
        testbed = build_testbed(num_caches, seed)
        grouping = SLScheme(landmark_config=lm).form_groups(
            testbed.network, k, seed=seed
        )
        for setting in SETTINGS:
            result = run_simulation(
                testbed, grouping, config=_config(setting)
            )
            rates = result.hit_rates()
            latency[setting] += result.average_latency_ms() / len(seeds)
            local_share[setting] += rates["local"] / len(seeds)
            group_share[setting] += rates["group"] / len(seeds)
    return ExperimentResult(
        experiment_id="ablation-coop-placement",
        x_label="setting",
        x_values=SETTINGS,
        series=(
            SeriesResult("latency_ms", tuple(latency[s] for s in SETTINGS)),
            SeriesResult(
                "local_hit_share", tuple(local_share[s] for s in SETTINGS)
            ),
            SeriesResult(
                "group_hit_share", tuple(group_share[s] for s in SETTINGS)
            ),
        ),
    )


@pytest.fixture(scope="module")
def placement_result():
    return run_placement_sweep()


def test_placement_sweep_benchmark(benchmark):
    result = benchmark.pedantic(
        run_placement_sweep,
        kwargs=dict(num_caches=30, k=4, seeds=(121,)),
        rounds=1,
        iterations=1,
    )
    assert result.experiment_id == "ablation-coop-placement"


def test_placement_shifts_local_hits_to_group_hits(
    benchmark, placement_result
):
    shape_check(benchmark)
    report(placement_result)
    local = dict(
        zip(
            placement_result.x_values,
            placement_result.series_named("local_hit_share").values,
        )
    )
    group = dict(
        zip(
            placement_result.x_values,
            placement_result.series_named("group_hit_share").values,
        )
    )
    assert local["threshold_40ms"] < local["off"]
    assert group["threshold_40ms"] > group["off"]


def test_moderate_threshold_latency_neutral(benchmark, placement_result):
    """Skipping only very-near duplicates must not hurt latency much
    (the replaced local hits become ~equally cheap group hits)."""
    shape_check(benchmark)
    latency = dict(
        zip(
            placement_result.x_values,
            placement_result.series_named("latency_ms").values,
        )
    )
    assert latency["threshold_5ms"] <= latency["off"] * 1.10
