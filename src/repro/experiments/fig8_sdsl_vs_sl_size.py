"""Figure 8: SDSL vs. SL average latency, varying network size.

Networks of growing size, groups formed by SL and SDSL (same 25 greedy
landmarks) at K = 10% and K = 20% of N, compared by simulated average
cache latency.  The paper reports SDSL winning at every size and both K
settings — over 27% better at N=500, K=20%.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.latency import improvement_percent
from repro.analysis.report import ExperimentResult
from repro.experiments.base import (
    latency_unit,
    series_means,
    sweep_payloads,
    sweep_result,
)
from repro.runtime.scheduler import map_tasks

DEFAULT_SIZES = (60, 100, 140)
PAPER_SIZES = (100, 200, 300, 400, 500)
GROUP_FRACTIONS = (0.10, 0.20)
#: One series per (K fraction, scheme), in payload order.
SERIES = ("sl_k10_ms", "sdsl_k10_ms", "sl_k20_ms", "sdsl_k20_ms")


def run_fig8(
    network_sizes: Optional[Sequence[int]] = None,
    num_landmarks: int = 25,
    theta: float = 2.0,
    seed: int = 29,
    repetitions: int = 2,
    paper_scale: bool = False,
) -> ExperimentResult:
    """Reproduce Figure 8's four latency series (2 schemes x 2 K settings).

    Each point averages ``repetitions`` independent (testbed, scheme)
    runs: single K-means runs are noisy enough to occasionally invert
    the SL/SDSL ordering on one draw.  The four scheme/K runs of one
    (size, repetition) share its testbed.
    """
    if paper_scale:
        network_sizes = network_sizes or PAPER_SIZES
    sizes = tuple(network_sizes or DEFAULT_SIZES)

    def point(n, rep):
        common = {
            "num_caches": n,
            "num_landmarks": num_landmarks,
            "testbed_seed": seed + 1000 * rep + n,
            "seed": seed + rep,
        }
        return [
            {**common, "k": max(2, round(fraction * n)), **scheme}
            for fraction in GROUP_FRACTIONS
            for scheme in ({"scheme": "SL"}, {"scheme": "SDSL", "theta": theta})
        ]

    payloads = sweep_payloads(sizes, repetitions, point)
    values = map_tasks(latency_unit, payloads)
    series = dict(zip(SERIES, series_means(values, repetitions, len(SERIES))))

    notes = {
        "max_improvement_k20_pct": max(
            improvement_percent(sl, sdsl)
            for sl, sdsl in zip(series["sl_k20_ms"], series["sdsl_k20_ms"])
        ),
        "theta": theta,
    }
    return sweep_result("fig8", "num_caches", sizes, series, notes)
