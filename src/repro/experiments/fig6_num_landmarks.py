"""Figure 6: clustering accuracy vs. number of landmarks.

The bar graph: GICost for the three landmark selectors at L = 10, 20,
25 landmarks (fixed network, K = 10 groups).  The paper reports all
three improving with more landmarks, diminishing returns beyond 25, and
SL best at every L.
"""

from __future__ import annotations

from typing import Optional, Sequence

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

PAPER_LANDMARK_COUNTS = (10, 20, 25)


def run_fig6(
    num_caches: int = 150,
    landmark_counts: Optional[Sequence[int]] = None,
    num_groups: int = 10,
    seed: int = 19,
    repetitions: int = 3,
    paper_scale: bool = False,
) -> ExperimentResult:
    """Reproduce Figure 6's GICost bars per (selector, L) combination.

    The network does not depend on the landmark count being swept, so
    each repetition fixes one network; the selector's seed stream is
    derived per (L, selector).
    """
    if paper_scale:
        num_caches = 500
    landmark_counts = tuple(landmark_counts or PAPER_LANDMARK_COUNTS)
    if any(count < 2 for count in landmark_counts):
        raise ValueError(f"landmark counts must be >= 2: {landmark_counts}")

    factory = RngFactory(seed)
    rep_seeds = [
        factory.fork(f"rep{rep}").root_seed for rep in range(repetitions)
    ]

    def point(count, rep):
        return [
            {
                "num_caches": num_caches,
                "k": num_groups,
                "num_landmarks": count,
                "scheme": scheme,
                "seed": rep_seeds[rep],
                "stream": f"l{count}-{name}",
            }
            for name, scheme in SELECTORS.items()
        ]

    payloads = sweep_payloads(landmark_counts, repetitions, point)
    values = map_tasks(gicost_unit, payloads)
    series = dict(
        zip(SELECTORS, series_means(values, repetitions, len(SELECTORS)))
    )
    return sweep_result(
        "fig6", "num_landmarks", landmark_counts, series,
        {"num_caches": float(num_caches), "num_groups": float(num_groups)},
    )
