"""Figure 9: SDSL vs. SL average latency, varying the number of groups.

One fixed network, K swept; the paper reports SDSL below SL at every K
on the 500-cache network.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.latency import improvement_percent
from repro.analysis.report import ExperimentResult
from repro.experiments.base import (
    build_testbed,
    latency_unit,
    series_means,
    sweep_payloads,
    sweep_result,
)
from repro.runtime.scheduler import map_tasks

DEFAULT_K_VALUES = (5, 10, 15, 25, 40)
PAPER_K_VALUES = (10, 25, 50, 75, 100)
SERIES = ("sl_ms", "sdsl_ms")


def run_fig9(
    num_caches: int = 150,
    k_values: Optional[Sequence[int]] = None,
    num_landmarks: int = 25,
    theta: float = 2.0,
    seed: int = 31,
    repetitions: int = 2,
    paper_scale: bool = False,
) -> ExperimentResult:
    """Reproduce Figure 9's latency-vs-K comparison.

    Each point averages ``repetitions`` scheme runs over the same
    testbed (K-means initialization noise is the dominant variance).
    """
    if paper_scale:
        num_caches = 500
        k_values = k_values or PAPER_K_VALUES
    k_values = tuple(k_values or DEFAULT_K_VALUES)

    def point(k, rep):
        common = {
            "num_caches": num_caches,
            "k": k,
            "num_landmarks": num_landmarks,
            "testbed_seed": seed,
            "seed": seed + 1000 * rep + k,
        }
        return [
            {**common, "scheme": "SL"},
            {**common, "scheme": "SDSL", "theta": theta},
        ]

    payloads = sweep_payloads(k_values, repetitions, point)
    # Warm the cache so forked pool workers inherit the built testbed.
    build_testbed(num_caches, seed)
    values = map_tasks(latency_unit, payloads)
    series = dict(zip(SERIES, series_means(values, repetitions, len(SERIES))))

    notes = {
        "mean_improvement_pct": sum(
            improvement_percent(sl, sdsl)
            for sl, sdsl in zip(series["sl_ms"], series["sdsl_ms"])
        ) / len(k_values),
        "theta": theta,
        "num_caches": float(num_caches),
    }
    return sweep_result("fig9", "num_groups", k_values, series, notes)
