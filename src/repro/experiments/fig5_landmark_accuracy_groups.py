"""Figure 5: landmark-selection accuracy vs. number of groups.

Same three landmark selectors as Figure 4, on one fixed-size network,
sweeping the number of cache groups K.  The paper reports SL's greedy
selection giving the best clustering accuracy at every K, with GICost
falling as K grows (smaller groups are tighter).
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

DEFAULT_K_VALUES = (5, 10, 15, 25, 40)
PAPER_K_VALUES = (10, 25, 50, 75, 100)


def run_fig5(
    num_caches: int = 150,
    k_values: Optional[Sequence[int]] = None,
    num_landmarks: int = 25,
    seed: int = 17,
    repetitions: int = 3,
    paper_scale: bool = False,
) -> ExperimentResult:
    """Reproduce Figure 5's GICost-vs-K series for the three selectors.

    The network does not depend on K, so each repetition fixes one
    network (seeded per repetition); only the selector's seed stream
    varies with (K, selector).
    """
    if paper_scale:
        num_caches = 500
        k_values = k_values or PAPER_K_VALUES
    k_values = tuple(k_values or DEFAULT_K_VALUES)
    if any(k < 1 or k > num_caches for k in k_values):
        raise ValueError(
            f"k values must lie in [1, {num_caches}]: {k_values}"
        )

    factory = RngFactory(seed)
    rep_seeds = [
        factory.fork(f"rep{rep}").root_seed for rep in range(repetitions)
    ]

    def point(k, rep):
        return [
            {
                "num_caches": num_caches,
                "k": k,
                "num_landmarks": num_landmarks,
                "scheme": scheme,
                "seed": rep_seeds[rep],
                "stream": f"k{k}-{name}",
            }
            for name, scheme in SELECTORS.items()
        ]

    payloads = sweep_payloads(k_values, repetitions, point)
    values = map_tasks(gicost_unit, payloads)
    series = dict(
        zip(SELECTORS, series_means(values, repetitions, len(SELECTORS)))
    )
    return sweep_result(
        "fig5", "num_groups", k_values, series,
        {"num_caches": float(num_caches)},
    )
