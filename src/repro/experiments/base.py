"""Shared experiment plumbing.

Every figure experiment needs the same ingredients: a network of N
caches, an Olympics-like workload over those caches, scheme runs, and a
simulated latency per grouping.  This module centralises those with the
evaluation-wide default parameters so figures differ only in what they
sweep.

Every repeated figure is one sweep: :func:`sweep_payloads` lays its
work units out in x -> repetition -> series order, the figure maps them
with its own ``map_tasks`` call (fig4–fig7 through :func:`gicost_unit`,
fig8/fig9 through :func:`latency_unit`), and :func:`series_means` reads
the results back as per-series means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.gicost import average_group_interaction_cost
from repro.analysis.report import ExperimentResult, SeriesResult
from repro.config import (
    DocumentConfig,
    GNPConfig,
    LandmarkConfig,
    SDSLConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.core.groups import GroupingResult
from repro.core.schemes import GroupFormationScheme, scheme_by_name
from repro.obs.profiling import phase_timer
from repro.runtime.cache import cached_network, get_cache, testbed_key
from repro.simulator.runner import SimulationResult, simulate
from repro.topology.network import EdgeCacheNetwork, build_network
from repro.utils.rng import RngFactory
from repro.workload.ibm_synthetic import Workload, generate_workload

#: Landmark count used throughout the paper's evaluation (Section 5).
PAPER_LANDMARKS = 25
#: Potential-landmark multiplier M used in the worked example.
PAPER_MULTIPLIER = 2

#: The landmark selectors Figures 4–6 compare: series name -> scheme
#: name.  The series name is also the selector's seed-stream label.
SELECTORS = {
    "sl_ms": "SL",
    "random_ms": "random-landmarks",
    "mindist_ms": "mindist-landmarks",
}


@dataclass(frozen=True)
class Testbed:
    """A network plus a workload over its caches — one experiment point."""

    network: EdgeCacheNetwork
    workload: Workload
    seed: int

    @property
    def num_caches(self) -> int:
        return self.network.num_caches


def default_workload_config(
    requests_per_cache: int = 150,
    num_documents: int = 400,
) -> WorkloadConfig:
    """The evaluation's workload parameters (see DESIGN.md substitutions)."""
    return WorkloadConfig(
        documents=DocumentConfig(num_documents=num_documents),
        requests_per_cache=requests_per_cache,
        zipf_alpha=0.9,
        shared_interest=0.8,
    )


def landmark_config(
    num_landmarks: int = PAPER_LANDMARKS,
    multiplier: int = PAPER_MULTIPLIER,
    num_caches: Optional[int] = None,
) -> LandmarkConfig:
    """Landmark config, clamped so L-1 never exceeds the cache count."""
    if num_caches is not None:
        num_landmarks = min(num_landmarks, num_caches + 1)
    return LandmarkConfig(num_landmarks=num_landmarks, multiplier=multiplier)


def build_testbed(
    num_caches: int,
    seed: int,
    requests_per_cache: int = 150,
    num_documents: int = 400,
) -> Testbed:
    """Build (or fetch) a network and matching workload for one seed.

    Testbeds are pure functions of the arguments, so they are memoised
    through the process-wide :class:`repro.runtime.cache.TestbedCache`
    — repeated figure points (and process-pool workers) skip the
    all-pairs Dijkstra and workload synthesis on a hit.
    """
    key = testbed_key(num_caches, seed, requests_per_cache, num_documents)
    return get_cache().get_or_build(
        key,
        lambda: _build_testbed_fresh(
            num_caches, seed, requests_per_cache, num_documents
        ),
    )


def _build_testbed_fresh(
    num_caches: int,
    seed: int,
    requests_per_cache: int,
    num_documents: int,
) -> Testbed:
    factory = RngFactory(seed)
    with phase_timer("testbed/network"):
        network = build_network(
            num_caches=num_caches, seed=factory.stream("topology")
        )
    with phase_timer("testbed/workload"):
        workload = generate_workload(
            network.cache_nodes,
            default_workload_config(requests_per_cache, num_documents),
            seed=factory.stream("workload"),
        )
    return Testbed(network=network, workload=workload, seed=seed)


def run_simulation(
    testbed: Testbed,
    grouping: GroupingResult,
    config: Optional[SimulationConfig] = None,
) -> SimulationResult:
    """Simulate one grouping over the testbed's workload."""
    with phase_timer("simulate"):
        return simulate(
            testbed.network, grouping, testbed.workload, config=config
        )


def payload_scheme(payload: Dict[str, Any]) -> GroupFormationScheme:
    """The work unit's scheme, built by its registry name.

    The landmark count is clamped to the payload's cache count; an SDSL
    ``theta`` or a GNP ``gnp_dimensions`` is passed on when present.
    """
    options: Dict[str, Any] = {
        "landmark_config": landmark_config(
            payload["num_landmarks"], num_caches=payload["num_caches"]
        ),
    }
    if "theta" in payload:
        options["sdsl_config"] = SDSLConfig(theta=payload["theta"])
    if "gnp_dimensions" in payload:
        options["gnp_config"] = GNPConfig(
            dimensions=payload["gnp_dimensions"]
        )
    return scheme_by_name(payload["scheme"], **options)


def gicost_unit(payload: Dict[str, Any]) -> float:
    """GICost of one grouping: the work unit of Figures 4–7.

    The network and the scheme's seed stream (labelled
    ``payload["stream"]``) both derive from ``payload["seed"]``, so the
    unit is a pure function of the payload — identical inline or on a
    worker, and the network comes from the testbed cache.
    """
    network = cached_network(payload["num_caches"], payload["seed"])
    grouping = payload_scheme(payload).form_groups(
        network,
        payload["k"],
        # Each figure builds its labels from its series names and x
        # value: one stream per (seed, series, x) by construction.
        # repro-lint: allow[stream-label-collision]
        seed=RngFactory(payload["seed"]).stream(payload["stream"]),
    )
    return average_group_interaction_cost(network, grouping)


def latency_unit(payload: Dict[str, Any]) -> float:
    """Average simulated latency of one grouping: Figures 8 and 9's unit.

    The testbed is re-fetched from the content-keyed cache by its
    explicit ``testbed_seed``, so every unit over one testbed is an
    independent pure task (one Dijkstra solve per testbed, not per
    unit); ``payload["seed"]`` seeds the scheme.
    """
    testbed = build_testbed(payload["num_caches"], payload["testbed_seed"])
    grouping = payload_scheme(payload).form_groups(
        testbed.network, payload["k"], seed=payload["seed"]
    )
    return run_simulation(testbed, grouping).average_latency_ms()


def sweep_payloads(
    xs: Sequence[Any],
    repetitions: int,
    point: Callable[[Any, int], List[Dict[str, Any]]],
) -> List[Dict[str, Any]]:
    """Work-unit payloads of a repeated sweep, x -> repetition -> series.

    ``point(x, rep)`` is called once per (x, repetition), in that
    order, and returns that point's payloads: one per series, always in
    the same series order.  :func:`series_means` reads results back in
    this order.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    return [
        payload
        for x in xs
        for rep in range(repetitions)
        for payload in point(x, rep)
    ]


def series_means(
    values: Sequence[Any],
    repetitions: int,
    width: int,
    metrics: Sequence[Any] = (None,),
) -> List[List[float]]:
    """Per-series means over the repetitions, one mean per x.

    ``values`` are unit results in :func:`sweep_payloads` order,
    ``width`` per (x, repetition) point.  Each column is a (slot,
    metric) pair, slot-major: the result at position ``slot`` of every
    point, read at ``metric`` (``None``: the result is the number).
    Means add the repetitions left to right from ``0.0``, then divide;
    ``sum()`` would not do, as from Python 3.12 it compensates float
    rounding and changes the last bits.
    """
    columns = [(slot, metric) for slot in range(width) for metric in metrics]
    means: List[List[float]] = [[] for _ in columns]
    step = width * repetitions
    for start in range(0, len(values), step):
        totals = [0.0] * len(columns)
        for first in range(start, start + step, width):
            for i, (slot, metric) in enumerate(columns):
                value = values[first + slot]
                totals[i] += value if metric is None else value[metric]
        for column, total in zip(means, totals):
            column.append(total / repetitions)
    return means


def sweep_result(
    experiment_id: str,
    x_label: str,
    x_values: Sequence[Any],
    series: Dict[str, Sequence[float]],
    notes: Dict[str, float],
) -> ExperimentResult:
    """A figure's result: one :class:`SeriesResult` per named series."""
    return ExperimentResult(
        experiment_id=experiment_id,
        x_label=x_label,
        x_values=tuple(x_values),
        series=tuple(
            SeriesResult(name, tuple(values))
            for name, values in series.items()
        ),
        notes=notes,
    )
