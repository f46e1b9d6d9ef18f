"""Ablation: the potential-landmark multiplier M.

The SL greedy selector picks L-1 landmarks from a random PLSet of
M*(L-1) caches.  Larger M means a better max-min spread at the cost of
O(M^2) more probes.  The bench records the accuracy/probes trade-off.
"""

import pytest

from benchmarks.conftest import report, shape_check
from repro.analysis.gicost import average_group_interaction_cost
from repro.analysis.report import ExperimentResult, SeriesResult
from repro.config import LandmarkConfig, ProbeConfig
from repro.core.schemes import SLScheme
from repro.landmarks import GreedyMaxMinSelector
from repro.probing import Prober
from repro.topology import build_network
from repro.utils.rng import RngFactory

M_VALUES = (1, 2, 4, 6)


def run_m_sweep(num_caches=120, k=12, num_landmarks=12, seeds=(51, 52, 53)):
    gicosts = []
    spreads = []
    probes = []
    for m in M_VALUES:
        lm_config = LandmarkConfig(num_landmarks=num_landmarks, multiplier=m)
        cost_total, spread_total, probe_total = 0.0, 0.0, 0
        for seed in seeds:
            factory = RngFactory(seed)
            network = build_network(
                num_caches=num_caches, seed=factory.stream("topology")
            )
            # Probe accounting for the selection phase alone.
            prober = Prober(
                network, config=ProbeConfig(probe_count=1),
                seed=factory.stream("probe"),
            )
            landmarks = GreedyMaxMinSelector().select(
                prober, lm_config, factory.stream("landmarks")
            )
            spread_total += landmarks.min_pairwise_rtt
            probe_total += prober.stats.pairs_measured

            scheme = SLScheme(landmark_config=lm_config)
            grouping = scheme.form_groups(network, k, seed=seed)
            cost_total += average_group_interaction_cost(network, grouping)
        gicosts.append(cost_total / len(seeds))
        spreads.append(spread_total / len(seeds))
        probes.append(probe_total / len(seeds))
    return ExperimentResult(
        experiment_id="ablation-m-multiplier",
        x_label="M",
        x_values=M_VALUES,
        series=(
            SeriesResult("gicost_ms", tuple(gicosts)),
            SeriesResult("landmark_spread_ms", tuple(spreads)),
            SeriesResult("selection_probe_pairs", tuple(probes)),
        ),
    )


@pytest.fixture(scope="module")
def m_result():
    return run_m_sweep()


def test_m_sweep_benchmark(benchmark):
    result = benchmark.pedantic(
        run_m_sweep,
        kwargs=dict(num_caches=40, k=5, num_landmarks=6, seeds=(51,)),
        rounds=1,
        iterations=1,
    )
    assert result.experiment_id == "ablation-m-multiplier"


def test_larger_m_improves_landmark_spread(benchmark, m_result):
    shape_check(benchmark)
    report(m_result)
    spreads = m_result.series_named("landmark_spread_ms").values
    assert spreads[-1] > spreads[0]


def test_probe_cost_grows_quadratically(benchmark, m_result):
    shape_check(benchmark)
    probes = m_result.series_named("selection_probe_pairs").values
    # M=6 costs far more probes than M=1 (roughly quadratic).
    assert probes[-1] > 8 * probes[0]


def test_m2_captures_most_of_the_benefit(benchmark, m_result):
    """The paper's M=2 default: within 15% of the best-M GICost."""
    shape_check(benchmark)
    gicosts = m_result.series_named("gicost_ms").values
    m2 = gicosts[M_VALUES.index(2)]
    assert m2 <= min(gicosts) * 1.15
