"""Figure 7: feature vectors vs. GNP Euclidean-space clustering.

Both schemes share the same 25 greedily-chosen landmarks; SL clusters
raw RTT feature vectors, the Euclidean scheme first runs a GNP
least-squares embedding and clusters the coordinates.  The paper finds
near-parity — each wins at some K — concluding "the simple feature
vector representation scheme is sufficient".
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.report import ExperimentResult
from repro.experiments.base import (
    gicost_unit,
    series_means,
    sweep_payloads,
    sweep_result,
)
from repro.runtime.scheduler import map_tasks
from repro.utils.rng import RngFactory

DEFAULT_K_VALUES = (5, 10, 20, 40)
PAPER_K_VALUES = (10, 25, 50, 75, 100)
SERIES = ("sl_feature_vectors_ms", "euclidean_gnp_ms")


def run_fig7(
    num_caches: int = 120,
    k_values: Optional[Sequence[int]] = None,
    num_landmarks: int = 25,
    gnp_dimensions: int = 7,
    seed: int = 23,
    repetitions: int = 2,
    paper_scale: bool = False,
) -> ExperimentResult:
    """Reproduce Figure 7's GICost-vs-K comparison.

    The network is fixed per repetition (it does not depend on K);
    scheme seeds are derived per (K, scheme).
    """
    if paper_scale:
        num_caches = 500
        k_values = k_values or PAPER_K_VALUES
    k_values = tuple(k_values or DEFAULT_K_VALUES)

    factory = RngFactory(seed)
    rep_seeds = [
        factory.fork(f"rep{rep}").root_seed for rep in range(repetitions)
    ]

    def point(k, rep):
        common = {
            "num_caches": num_caches,
            "k": k,
            "num_landmarks": num_landmarks,
            "seed": rep_seeds[rep],
        }
        return [
            {**common, "scheme": "SL", "stream": f"k{k}-sl"},
            {
                **common,
                "scheme": "euclidean-gnp",
                "gnp_dimensions": gnp_dimensions,
                "stream": f"k{k}-gnp",
            },
        ]

    payloads = sweep_payloads(k_values, repetitions, point)
    values = map_tasks(gicost_unit, payloads)
    series = dict(zip(SERIES, series_means(values, repetitions, len(SERIES))))
    return sweep_result(
        "fig7", "num_groups", k_values, series,
        {"num_caches": float(num_caches)},
    )
