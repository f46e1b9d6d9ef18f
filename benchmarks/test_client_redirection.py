"""Extension bench: client-perceived latency under redirection policies.

The paper stops at edge-cache latency; end users additionally pay the
access RTT their redirection policy gives them.  This bench composes
the client substrate with the SDSL-grouped network and verifies the
policy ordering end to end.
"""

import pytest

from benchmarks.conftest import report, shape_check
from repro.analysis.report import ExperimentResult, SeriesResult
from repro.clients import (
    assign_clients,
    client_perceived_latency,
    generate_client_workload,
    place_clients,
)
from repro.config import LandmarkConfig
from repro.core.schemes import SDSLScheme
from repro.simulator import simulate
from repro.topology import build_network

POLICIES = ("nearest", "nearest-k", "random")


def run_redirection_sweep(
    num_caches=60, num_clients=150, k=6, seeds=(141, 142)
):
    lm = LandmarkConfig(num_landmarks=15, multiplier=2)
    perceived = {p: 0.0 for p in POLICIES}
    access = {p: 0.0 for p in POLICIES}
    for seed in seeds:
        network = build_network(num_caches=num_caches, seed=seed)
        population = place_clients(network, num_clients, seed=seed)
        grouping = SDSLScheme(landmark_config=lm).form_groups(
            network, k, seed=seed
        )
        for policy in POLICIES:
            assignment = assign_clients(
                population, policy=policy, k=3, seed=seed
            )
            cw = generate_client_workload(
                population, assignment, requests_per_client=25, seed=seed
            )
            result = simulate(network, grouping, cw.workload)
            perceived[policy] += client_perceived_latency(
                result, cw
            ) / len(seeds)
            from repro.clients.redirection import mean_access_rtt

            access[policy] += mean_access_rtt(
                population, assignment
            ) / len(seeds)
    return ExperimentResult(
        experiment_id="client-redirection",
        x_label="policy",
        x_values=POLICIES,
        series=(
            SeriesResult(
                "perceived_ms", tuple(perceived[p] for p in POLICIES)
            ),
            SeriesResult(
                "access_rtt_ms", tuple(access[p] for p in POLICIES)
            ),
        ),
    )


@pytest.fixture(scope="module")
def redirection_result():
    return run_redirection_sweep()


def test_redirection_sweep_benchmark(benchmark):
    result = benchmark.pedantic(
        run_redirection_sweep,
        kwargs=dict(num_caches=25, num_clients=40, k=4, seeds=(141,)),
        rounds=1,
        iterations=1,
    )
    assert result.experiment_id == "client-redirection"


def test_policy_ordering_end_to_end(benchmark, redirection_result):
    shape_check(benchmark)
    report(redirection_result)
    perceived = dict(
        zip(
            redirection_result.x_values,
            redirection_result.series_named("perceived_ms").values,
        )
    )
    assert perceived["nearest"] <= perceived["nearest-k"] * 1.02
    assert perceived["nearest-k"] < perceived["random"]


def test_access_rtt_explains_the_gap(benchmark, redirection_result):
    """The perceived-latency gap between nearest and random comes from
    access RTT, not from edge behaviour."""
    shape_check(benchmark)
    perceived = redirection_result.series_named("perceived_ms").values
    access = redirection_result.series_named("access_rtt_ms").values
    perceived_gap = perceived[POLICIES.index("random")] - perceived[
        POLICIES.index("nearest")
    ]
    access_gap = access[POLICIES.index("random")] - access[
        POLICIES.index("nearest")
    ]
    assert access_gap > 0
    assert perceived_gap == pytest.approx(access_gap, rel=0.5)
