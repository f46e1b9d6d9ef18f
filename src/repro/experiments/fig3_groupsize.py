"""Figure 3: average latency vs. average cache group size (SL scheme).

The paper's motivating experiment: a 500-cache network partitioned by
the SL scheme into groups of average size swept from 2 to 500.  Three
latency curves — all caches, the 50 nearest the origin, the 50 farthest
— all follow a U-shape, with minima at *different* group sizes: far
caches prefer larger groups (hit rate dominates), near caches prefer
smaller ones (interaction cost dominates).  That non-uniformity is the
motivation for SDSL.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.report import ExperimentResult
from repro.core.groups import single_group
from repro.core.schemes import SLScheme
from repro.experiments.base import (
    build_testbed,
    landmark_config,
    run_simulation,
    series_means,
    sweep_payloads,
    sweep_result,
)
from repro.runtime.scheduler import map_tasks

#: Group sizes swept at laptop scale (paper sweeps 2..500 on 500 caches).
DEFAULT_GROUP_SIZES = (2, 5, 10, 25, 50, 100, 150)
PAPER_GROUP_SIZES = (2, 5, 10, 25, 50, 100, 250, 500)


def _fig3_point(payload: dict) -> tuple:
    """One sweep point: form groups at one size and simulate.

    Module-level and driven by a plain payload dict so the ambient
    :class:`~repro.runtime.scheduler.TaskScheduler` can ship it to a
    pool worker; the testbed is re-fetched from the content-keyed cache.
    """
    testbed = build_testbed(payload["num_caches"], payload["seed"])
    n = testbed.num_caches
    k = max(1, round(n / payload["size"]))
    if k == 1:
        grouping = single_group(testbed.network.cache_nodes)
    else:
        scheme = SLScheme(landmark_config=landmark_config(num_caches=n))
        grouping = scheme.form_groups(testbed.network, k, seed=payload["seed"])
    result = run_simulation(testbed, grouping)
    subset = payload["subset"]
    return (
        result.average_latency_ms(),
        result.latency_nearest_origin(subset),
        result.latency_farthest_origin(subset),
    )


def run_fig3(
    num_caches: int = 150,
    group_sizes: Optional[Sequence[int]] = None,
    subset_count: Optional[int] = None,
    seed: int = 11,
    paper_scale: bool = False,
) -> ExperimentResult:
    """Reproduce Figure 3's three latency-vs-group-size curves.

    ``subset_count`` defaults to 10% of the caches (the paper's 50 of
    500).
    """
    if paper_scale:
        num_caches = 500
        group_sizes = group_sizes or PAPER_GROUP_SIZES
    group_sizes = tuple(group_sizes or DEFAULT_GROUP_SIZES)
    if any(size < 1 for size in group_sizes):
        raise ValueError(f"group sizes must be >= 1: {group_sizes}")

    # Warm the cache once in this process so pool workers forked later
    # inherit the built testbed instead of each rebuilding it.
    n = build_testbed(num_caches, seed).num_caches
    subset = subset_count or max(5, n // 10)

    swept = [size for size in group_sizes if size <= n]
    payloads = sweep_payloads(swept, 1, lambda size, _rep: [{
        "num_caches": n,
        "seed": seed,
        "size": size,
        "subset": subset,
    }])
    points = map_tasks(_fig3_point, payloads)
    names = ("all_caches_ms", f"nearest_{subset}_ms", f"farthest_{subset}_ms")
    series = dict(zip(names, series_means(points, 1, 1, range(len(names)))))
    return sweep_result(
        "fig3", "avg_group_size", swept, series,
        {"num_caches": float(n), "subset_count": float(subset)},
    )
