"""Ablation: freshness maintenance — invalidation vs TTL vs none.

The paper's cooperative freshness model is server-driven invalidation;
TTL expiry is the classic cheap alternative.  This bench maps the
trade-off: invalidation serves zero stale content at the cost of
invalidation fan-out messages; TTLs trade staleness for silence.
"""

import pytest

from benchmarks.conftest import report, shape_check
from repro.analysis.report import ExperimentResult, SeriesResult
from repro.config import LandmarkConfig, SimulationConfig
from repro.core.schemes import SLScheme
from repro.experiments.base import build_testbed, run_simulation

SETTINGS = ("invalidate", "ttl_short", "ttl_long", "none")


def _config(setting: str) -> SimulationConfig:
    if setting == "invalidate":
        return SimulationConfig(consistency_mode="invalidate")
    if setting == "ttl_short":
        return SimulationConfig(consistency_mode="ttl", ttl_ms=1_000.0)
    if setting == "ttl_long":
        return SimulationConfig(consistency_mode="ttl", ttl_ms=30_000.0)
    return SimulationConfig(consistency_mode="none")


def run_consistency_sweep(num_caches=80, k=8, seeds=(101, 102)):
    lm = LandmarkConfig(num_landmarks=15, multiplier=2)
    latency = {s: 0.0 for s in SETTINGS}
    stale = {s: 0.0 for s in SETTINGS}
    invalidations = {s: 0.0 for s in SETTINGS}
    for seed in seeds:
        testbed = build_testbed(num_caches, seed)
        grouping = SLScheme(landmark_config=lm).form_groups(
            testbed.network, k, seed=seed
        )
        for setting in SETTINGS:
            result = run_simulation(testbed, grouping, config=_config(setting))
            latency[setting] += result.average_latency_ms() / len(seeds)
            stale[setting] += result.stale_serve_fraction() / len(seeds)
            invalidations[setting] += (
                result.metrics.invalidation_messages / len(seeds)
            )
    return ExperimentResult(
        experiment_id="ablation-consistency",
        x_label="mode",
        x_values=SETTINGS,
        series=(
            SeriesResult("latency_ms", tuple(latency[s] for s in SETTINGS)),
            SeriesResult(
                "stale_fraction", tuple(stale[s] for s in SETTINGS)
            ),
            SeriesResult(
                "invalidation_msgs",
                tuple(invalidations[s] for s in SETTINGS),
            ),
        ),
    )


@pytest.fixture(scope="module")
def consistency_result():
    return run_consistency_sweep()


def test_consistency_sweep_benchmark(benchmark):
    result = benchmark.pedantic(
        run_consistency_sweep,
        kwargs=dict(num_caches=30, k=4, seeds=(101,)),
        rounds=1,
        iterations=1,
    )
    assert result.experiment_id == "ablation-consistency"


def test_invalidation_serves_zero_stale(benchmark, consistency_result):
    shape_check(benchmark)
    report(consistency_result)
    stale = dict(
        zip(
            consistency_result.x_values,
            consistency_result.series_named("stale_fraction").values,
        )
    )
    assert stale["invalidate"] == 0.0


def test_staleness_ordering(benchmark, consistency_result):
    """invalidate < ttl_short < ttl_long <= none in stale serves."""
    shape_check(benchmark)
    stale = dict(
        zip(
            consistency_result.x_values,
            consistency_result.series_named("stale_fraction").values,
        )
    )
    assert stale["ttl_short"] < stale["ttl_long"]
    assert stale["ttl_long"] <= stale["none"] + 1e-9


def test_only_invalidation_pays_fanout(benchmark, consistency_result):
    shape_check(benchmark)
    msgs = dict(
        zip(
            consistency_result.x_values,
            consistency_result.series_named("invalidation_msgs").values,
        )
    )
    assert msgs["invalidate"] > 0
    assert msgs["ttl_short"] == msgs["ttl_long"] == msgs["none"] == 0


def test_weaker_consistency_cheaper_latency(benchmark, consistency_result):
    """Serving stale copies avoids re-fetches: none <= invalidate."""
    shape_check(benchmark)
    latency = dict(
        zip(
            consistency_result.x_values,
            consistency_result.series_named("latency_ms").values,
        )
    )
    assert latency["none"] <= latency["invalidate"]
