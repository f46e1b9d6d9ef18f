"""Figure 4: landmark-selection accuracy vs. network size.

Compares the three landmark selection techniques — SL greedy, random,
and min-dist — by average group interaction cost, on networks of
growing size, with K fixed at 10% of N and L = 25 landmarks.  The paper
reports SL beating random by 8–26% and min-dist by 21–46% across all
sizes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.latency import improvement_percent
from repro.analysis.report import ExperimentResult
from repro.experiments.base import (
    SELECTORS,
    gicost_unit,
    series_means,
    sweep_payloads,
    sweep_result,
)
from repro.runtime.scheduler import map_tasks
from repro.utils.rng import RngFactory

DEFAULT_SIZES = (60, 100, 140, 180)
PAPER_SIZES = (100, 200, 300, 400, 500)
#: K is set to 10% of the cache count, per the paper.
GROUP_FRACTION = 0.10


def run_fig4(
    network_sizes: Optional[Sequence[int]] = None,
    num_landmarks: int = 25,
    seed: int = 13,
    repetitions: int = 3,
    paper_scale: bool = False,
) -> ExperimentResult:
    """Reproduce Figure 4's three GICost-vs-network-size series.

    Each point averages ``repetitions`` independent (topology, scheme)
    runs to smooth out K-means initialization noise.  A repetition's
    network and every selector's seed stream derive from one fork of
    the figure seed.
    """
    if paper_scale:
        network_sizes = network_sizes or PAPER_SIZES
    sizes = tuple(network_sizes or DEFAULT_SIZES)
    factory = RngFactory(seed)

    def point(n, rep):
        fork_seed = factory.fork(f"n{n}-rep{rep}").root_seed
        return [
            {
                "num_caches": n,
                "k": max(2, round(GROUP_FRACTION * n)),
                "num_landmarks": num_landmarks,
                "scheme": scheme,
                "seed": fork_seed,
                "stream": name,
            }
            for name, scheme in SELECTORS.items()
        ]

    payloads = sweep_payloads(sizes, repetitions, point)
    values = map_tasks(gicost_unit, payloads)
    series = dict(
        zip(SELECTORS, series_means(values, repetitions, len(SELECTORS)))
    )

    sl = series["sl_ms"]
    notes = {
        "improvement_over_random_pct_min": min(
            improvement_percent(r, s) for s, r in zip(sl, series["random_ms"])
        ),
        "improvement_over_random_pct_max": max(
            improvement_percent(r, s) for s, r in zip(sl, series["random_ms"])
        ),
        "improvement_over_mindist_pct_min": min(
            improvement_percent(m, s) for s, m in zip(sl, series["mindist_ms"])
        ),
        "improvement_over_mindist_pct_max": max(
            improvement_percent(m, s) for s, m in zip(sl, series["mindist_ms"])
        ),
    }
    return sweep_result("fig4", "num_caches", sizes, series, notes)
