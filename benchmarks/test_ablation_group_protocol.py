"""Ablation: cooperative lookup protocol (beacon vs multicast vs directory).

Quantifies how much of the group-size latency penalty comes from the
lookup mechanism: the idealised directory has no distance-dependent
penalty, the beacon pays one in-group RTT, and ICP-style multicast pays
the farthest-peer RTT on every group-wide miss.
"""

import pytest

from benchmarks.conftest import report, shape_check
from repro.analysis.report import ExperimentResult, SeriesResult
from repro.config import LandmarkConfig
from repro.core.groups import single_group
from repro.core.schemes import SLScheme
from repro.experiments.base import build_testbed
from repro.simulator import simulate

MODES = ("directory", "beacon", "multicast")


def run_protocol_sweep(num_caches=100, seeds=(91, 92)):
    lm = LandmarkConfig(num_landmarks=15, multiplier=2)
    moderate = {m: 0.0 for m in MODES}
    giant = {m: 0.0 for m in MODES}
    for seed in seeds:
        testbed = build_testbed(num_caches, seed)
        grouping = SLScheme(landmark_config=lm).form_groups(
            testbed.network, max(2, num_caches // 10), seed=seed
        )
        one_group = single_group(testbed.network.cache_nodes)
        for mode in MODES:
            moderate[mode] += simulate(
                testbed.network, grouping, testbed.workload,
                group_protocol_mode=mode,
            ).average_latency_ms() / len(seeds)
            giant[mode] += simulate(
                testbed.network, one_group, testbed.workload,
                group_protocol_mode=mode,
            ).average_latency_ms() / len(seeds)
    return ExperimentResult(
        experiment_id="ablation-group-protocol",
        x_label="protocol",
        x_values=MODES,
        series=(
            SeriesResult(
                "moderate_groups_ms", tuple(moderate[m] for m in MODES)
            ),
            SeriesResult("one_giant_group_ms", tuple(giant[m] for m in MODES)),
        ),
    )


@pytest.fixture(scope="module")
def protocol_result():
    return run_protocol_sweep()


def test_protocol_sweep_benchmark(benchmark):
    result = benchmark.pedantic(
        run_protocol_sweep,
        kwargs=dict(num_caches=40, seeds=(91,)),
        rounds=1,
        iterations=1,
    )
    assert result.experiment_id == "ablation-group-protocol"


def test_idealised_directory_always_cheapest(benchmark, protocol_result):
    """The zero-distance directory lower-bounds both real protocols in
    both group-size regimes.  (Beacon vs multicast flips with the hit
    rate: in a giant group multicast's first-positive-reply is cheap
    while the beacon is a random — likely far — member.)"""
    shape_check(benchmark)
    report(protocol_result)
    for series_name in ("moderate_groups_ms", "one_giant_group_ms"):
        values = dict(
            zip(
                protocol_result.x_values,
                protocol_result.series_named(series_name).values,
            )
        )
        assert values["directory"] <= values["beacon"] * 1.02
        assert values["directory"] <= values["multicast"] * 1.02


def test_giant_group_only_acceptable_with_free_lookups(
    benchmark, protocol_result
):
    """With an idealised directory the giant group is close to moderate
    groups; with distance-charged lookups it is clearly worse —
    i.e. the paper's trade-off comes from lookup/interaction costs."""
    shape_check(benchmark)
    moderate = dict(
        zip(
            protocol_result.x_values,
            protocol_result.series_named("moderate_groups_ms").values,
        )
    )
    giant = dict(
        zip(
            protocol_result.x_values,
            protocol_result.series_named("one_giant_group_ms").values,
        )
    )
    penalty_directory = giant["directory"] / moderate["directory"]
    penalty_beacon = giant["beacon"] / moderate["beacon"]
    assert penalty_beacon > penalty_directory
