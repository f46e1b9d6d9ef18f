"""Figure 9 bench: SDSL vs. SL latency across group counts.

Shape requirement: SDSL at or below SL across the K sweep on a fixed
network (paper: "irrespective of the number of cache groups formed").
"""

import pytest

from benchmarks.conftest import report, shape_check
from repro.experiments import run_fig9

K_VALUES = (5, 10, 15, 25, 40)


@pytest.fixture(scope="module")
def fig9_result():
    return run_fig9(
        num_caches=150, k_values=K_VALUES, repetitions=3, seed=31
    )


def test_fig9_benchmark(benchmark):
    result = benchmark.pedantic(
        run_fig9,
        kwargs=dict(
            num_caches=50, k_values=(5, 10), repetitions=1, seed=31
        ),
        rounds=1,
        iterations=1,
    )
    assert result.experiment_id == "fig9"


def test_fig9_sdsl_wins_overall(benchmark, fig9_result):
    shape_check(benchmark)
    report(fig9_result)
    assert fig9_result.notes["mean_improvement_pct"] > 0


def test_fig9_sdsl_rarely_loses_at_any_k(benchmark, fig9_result):
    shape_check(benchmark)
    sl = fig9_result.series_named("sl_ms").values
    sdsl = fig9_result.series_named("sdsl_ms").values
    losses = sum(1 for s, d in zip(sl, sdsl) if d > s * 1.05)
    assert losses <= 1  # at most one K where SDSL is >5% worse
