"""The benchmark's workloads: seeded inputs, the timed call, its check.

Every workload has the same shape:

* ``build(seed, tracer)`` makes the inputs from the workload seed alone;
* ``call(inputs, tracer)`` is the timed unit: public calls into the
  program (``simulate``, ``form_groups`` + GICost, ``run_suite``);
* ``fingerprint(inputs, output)`` checks the output's invariants and
  returns a JSON-able digest of it, raising :class:`OutputError` when
  an invariant is broken;
* ``warmup(inputs)`` is the one call made during set-up, so lazy
  imports and first-touch allocation stay out of the timed calls;
  ``warmup_is_call`` says whether it is the timed call itself;
* ``items(inputs)`` is the work one call completes (for throughput),
  and ``item`` names its unit (events, groupings, figures);
* ``layer_metrics(inputs, output)`` gives the per-layer numbers the
  output itself carries (counts, manifest phase timings).

With a :class:`~tracing.Tracer` the same calls record spans around each
layer; without one they run exactly as a user would call them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.gicost import average_group_interaction_cost
from repro.bench.core import LARGE_SCENARIO, BenchScenario
from repro.clustering.init import ServerDistanceBiasedInit
from repro.config import (
    CacheConfig,
    DocumentConfig,
    KMeansConfig,
    LandmarkConfig,
    ProbeConfig,
    SDSLConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.core import (
    GFCoordinator,
    MinDistLandmarksScheme,
    RandomLandmarksScheme,
    SDSLScheme,
    SLScheme,
)
from repro.core.groups import GroupingResult, groups_from_labels
from repro.experiments.registry import REGISTRY
from repro.experiments.suite import run_suite
from repro.landmarks.greedy import GreedyMaxMinSelector
from repro.landmarks.mindist import MinDistSelector
from repro.landmarks.random_sel import RandomSelector
from repro.runtime import reset_cache
from repro.simulator import simulate
from repro.topology import build_network
from repro.workload import generate_workload

from tracing import Tracer, span


class OutputError(Exception):
    """A call's output broke an invariant or did not match its pin."""


def derive_seeds(seed: int, count: int) -> List[int]:
    """``count`` independent input seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _sha256(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- simulator kernel ----------------------------------------------------


#: ``sim-update``: the batched kernel driven by writes.  Small slices
#: between ~64.5k update barriers, 90% dynamic content, tight caches.
UPDATE_SCENARIO = dataclasses.replace(
    LARGE_SCENARIO,
    num_documents=2_000,
    requests_per_cache=5_000,
    zipf_alpha=0.9,
    dynamic_fraction=0.9,
    update_interarrival_ms=20.0,
    capacity_fraction=0.3,
)


@dataclass
class SimInputs:
    network: Any
    workload: Any
    grouping: GroupingResult
    config: SimulationConfig


@dataclass(frozen=True)
class SimWorkload:
    """One ``simulate()`` call over a pinned :class:`BenchScenario`."""

    name: str
    scenario: BenchScenario
    item = "events"
    warmup_is_call = True

    def build(self, seed: int, tracer: Optional[Tracer] = None) -> SimInputs:
        sc = self.scenario
        net_seed, workload_seed = derive_seeds(seed, 2)
        with span(tracer, "topology.build"):
            network = build_network(num_caches=sc.num_caches, seed=net_seed)
        with span(tracer, "workload.generate") as sp:
            workload = generate_workload(
                network.cache_nodes,
                WorkloadConfig(
                    documents=DocumentConfig(
                        num_documents=sc.num_documents,
                        dynamic_fraction=sc.dynamic_fraction,
                    ),
                    requests_per_cache=sc.requests_per_cache,
                    zipf_alpha=sc.zipf_alpha,
                    mean_update_interarrival_ms=sc.update_interarrival_ms,
                ),
                seed=workload_seed,
            )
        if sp is not None:
            sp.counts["requests"] = len(workload.requests)
            sp.counts["updates"] = len(workload.updates)
        grouping = GroupingResult(
            scheme="round-robin",
            groups=groups_from_labels(
                network.cache_nodes,
                [node % sc.num_groups for node in network.cache_nodes],
            ),
        )
        config = SimulationConfig(
            cache=CacheConfig(capacity_fraction=sc.capacity_fraction)
        )
        return SimInputs(network, workload, grouping, config)

    def items(self, inputs: SimInputs) -> int:
        """Simulated events: requests plus update barriers."""
        return len(inputs.workload.requests) + len(inputs.workload.updates)

    def warmup(self, inputs: SimInputs) -> Any:
        return self.call(inputs)

    def call(self, inputs: SimInputs, tracer: Optional[Tracer] = None) -> Any:
        with span(tracer, "simulator.run"):
            return simulate(
                inputs.network, inputs.grouping, inputs.workload,
                config=inputs.config,
            )

    def fingerprint(self, inputs: SimInputs, result: Any) -> str:
        metrics = result.metrics
        served = metrics.total_requests() + metrics.warmup_skipped
        if not metrics.conservation_holds() or served != len(
            inputs.workload.requests
        ):
            raise OutputError(
                f"request conservation broken: {served} served of "
                f"{len(inputs.workload.requests)} requests"
            )
        rows = []
        for node in sorted(metrics.cache_nodes()):
            stats = metrics.cache_stats(node)
            rows.append([
                node, stats.local_hits, stats.group_hits,
                stats.origin_fetches, stats.invalidations_received,
                repr(stats.latency.mean * stats.latency.count),
            ])
        return _sha256([rows, metrics.invalidation_messages])

    def layer_metrics(self, inputs: SimInputs, result: Any) -> Dict[str, float]:
        metrics = result.metrics
        per_cache = [metrics.cache_stats(n) for n in metrics.cache_nodes()]
        group = sum(s.group_hits for s in per_cache)
        origin = sum(s.origin_fetches for s in per_cache)
        requests = len(inputs.workload.requests)
        barriers = len(inputs.workload.updates)
        return {
            "simulator.events": float(self.items(inputs)),
            "simulator.local_hits": float(sum(s.local_hits for s in per_cache)),
            "simulator.group_hits": float(group),
            "simulator.origin_fetches": float(origin),
            "simulator.query_messages": float(
                sum(s.query_messages for s in per_cache)
            ),
            "simulator.placement_skips": float(
                sum(s.placement_skips for s in per_cache)
            ),
            # Every local miss asks the group first (groups of ten), so
            # cooperative lookups = group hits + origin fetches.
            "simulator.coop_hit_ratio": group / (group + origin)
            if group + origin else 0.0,
            "simulator.barriers": float(barriers),
            "simulator.requests_per_slice": requests / (barriers + 1),
            "simulator.invalidation_messages": float(
                metrics.invalidation_messages
            ),
        }


# -- group formation -----------------------------------------------------


#: The four probe-based schemes with the selector each one uses, so the
#: traced call can drive the coordinator's steps itself.
SCHEMES = (
    (SLScheme, GreedyMaxMinSelector),
    (SDSLScheme, GreedyMaxMinSelector),
    (RandomLandmarksScheme, RandomSelector),
    (MinDistLandmarksScheme, MinDistSelector),
)


@dataclass
class FormationInputs:
    network: Any
    plan: List[Tuple[int, int, int]]  # (scheme index, k, scheme seed)


@dataclass(frozen=True)
class FormationWorkload:
    """``form_groups`` + GICost for every (scheme, k, seed) of a plan."""

    name: str = "formation"
    num_caches: int = 2_000
    ks: Tuple[int, ...] = (50, 200)
    scheme_seeds: int = 3
    landmarks: LandmarkConfig = LandmarkConfig(num_landmarks=25, multiplier=2)
    item = "groupings"
    warmup_is_call = True

    def build(
        self, seed: int, tracer: Optional[Tracer] = None
    ) -> FormationInputs:
        net_seed, *scheme_seeds = derive_seeds(seed, 1 + self.scheme_seeds)
        with span(tracer, "topology.build"):
            network = build_network(num_caches=self.num_caches, seed=net_seed)
        plan = [
            (index, k, s)
            for index in range(len(SCHEMES))
            for k in self.ks
            for s in scheme_seeds
        ]
        return FormationInputs(network, plan)

    def items(self, inputs: FormationInputs) -> int:
        """Groupings formed (each with its GICost)."""
        return len(inputs.plan)

    def warmup(self, inputs: FormationInputs) -> Any:
        return self.call(inputs)

    def call(
        self, inputs: FormationInputs, tracer: Optional[Tracer] = None
    ) -> List[Tuple[GroupingResult, float]]:
        out = []
        for index, k, seed in inputs.plan:
            if tracer is None:
                scheme = SCHEMES[index][0](landmark_config=self.landmarks)
                grouping = scheme.form_groups(inputs.network, k, seed=seed)
                cost = average_group_interaction_cost(inputs.network, grouping)
            else:
                grouping, cost = self._traced_grouping(
                    inputs.network, index, k, seed, tracer
                )
            out.append((grouping, cost))
        return out

    def _traced_grouping(
        self, network: Any, index: int, k: int, seed: int, tracer: Tracer
    ) -> Tuple[GroupingResult, float]:
        """The scheme's pipeline through ``GFCoordinator``'s public steps."""
        scheme_cls, selector_cls = SCHEMES[index]
        with tracer.span("core.form_groups"):
            coordinator = GFCoordinator(
                network, probe_config=ProbeConfig(), seed=seed
            )
            stats = coordinator.prober.stats
            with tracer.span("landmarks.select") as sp:
                landmarks = coordinator.choose_landmarks(
                    selector_cls(), self.landmarks
                )
            sp.counts["probes"] = stats.probes_sent
            probes, pairs = stats.probes_sent, stats.pairs_measured
            with tracer.span("probing.features") as sp:
                features = coordinator.build_features(landmarks)
            sp.counts["probes_sent"] = stats.probes_sent - probes
            sp.counts["pairs_measured"] = stats.pairs_measured - pairs
            initializer = None
            if scheme_cls is SDSLScheme:
                initializer = ServerDistanceBiasedInit(
                    coordinator.measured_server_distances(features),
                    theta=SDSLConfig().effective_theta(k, network.num_caches),
                )
            with tracer.span("clustering.kmeans") as sp:
                grouping = coordinator.cluster(
                    features, k, scheme_name=scheme_cls.name,
                    initializer=initializer, kmeans_config=KMeansConfig(),
                )
            sp.counts["iterations"] = grouping.clustering.iterations
        with tracer.span("analysis.gicost"):
            cost = average_group_interaction_cost(network, grouping)
        return grouping, cost

    def fingerprint(
        self,
        inputs: FormationInputs,
        out: Sequence[Tuple[GroupingResult, float]],
    ) -> str:
        nodes = sorted(inputs.network.cache_nodes)
        if len(out) != len(inputs.plan):
            raise OutputError(
                f"{len(out)} groupings for a plan of {len(inputs.plan)}"
            )
        rows = []
        for (index, k, _), (grouping, cost) in zip(inputs.plan, out):
            label = {}
            for group_index, group in enumerate(grouping.groups):
                for member in group.members:
                    if member in label:
                        raise OutputError(f"cache {member} is in two groups")
                    label[member] = group_index
            if sorted(label) != nodes:
                raise OutputError(
                    f"{SCHEMES[index][0].name} k={k}: "
                    f"{len(nodes) - len(label)} caches are in no group"
                )
            rows.append([[label[n] for n in nodes], repr(float(cost))])
        return _sha256(rows)

    def layer_metrics(self, inputs: FormationInputs, out: Any) -> Dict[str, float]:
        return {}


# -- the figure suite ----------------------------------------------------


@dataclass
class FiguresInputs:
    seed: int
    scratch: Path


@dataclass
class FiguresOutput:
    #: figure id -> SHA-256 of its archived result JSON
    digests: Dict[str, str]
    manifests: Dict[str, Any]


#: The named phases of a figure's manifest; the rest of the figure's
#: wall time is reported as ``experiments.other_s``.
_PHASES = ("testbed", "landmarks", "features", "cluster", "simulate")


@dataclass(frozen=True)
class FiguresWorkload:
    """One ``run_suite`` over the registered figures, cold testbed cache."""

    scratch: Path  # holds each call's output directory; made on demand
    name: str = "figures"
    figures: Optional[Tuple[str, ...]] = None  # None: every figure
    repetitions: Optional[int] = None
    item = "figures"
    #: The warm-up runs every figure once at ``repetitions=1``: the same
    #: code paths in about half the time of a full suite.
    warmup_is_call = False

    @property
    def selected(self) -> List[str]:
        return list(self.figures) if self.figures else sorted(REGISTRY)

    def build(
        self, seed: int, tracer: Optional[Tracer] = None
    ) -> FiguresInputs:
        (suite_seed,) = derive_seeds(seed, 1)
        self.scratch.mkdir(parents=True, exist_ok=True)
        return FiguresInputs(seed=suite_seed, scratch=self.scratch)

    def items(self, inputs: FiguresInputs) -> int:
        """Figures produced."""
        return len(self.selected)

    def warmup(self, inputs: FiguresInputs) -> FiguresOutput:
        return dataclasses.replace(self, repetitions=1).call(inputs)

    def call(
        self, inputs: FiguresInputs, tracer: Optional[Tracer] = None
    ) -> FiguresOutput:
        reset_cache()
        with tempfile.TemporaryDirectory(dir=inputs.scratch) as tmp:
            run = run_suite(
                figures=self.figures, output_dir=tmp, seed=inputs.seed,
                repetitions=self.repetitions, worker_perf=tracer is not None,
            )
            digests = {
                fig: hashlib.sha256(
                    (Path(tmp) / f"{fig}.json").read_bytes()
                ).hexdigest()
                for fig in self.selected
            }
        reset_cache()
        return FiguresOutput(digests=digests, manifests=run.manifests)

    def fingerprint(
        self, inputs: FiguresInputs, out: FiguresOutput
    ) -> Dict[str, str]:
        missing = set(self.selected) - set(out.digests)
        if missing:
            raise OutputError(f"no result for {sorted(missing)}")
        return dict(out.digests)

    def layer_metrics(
        self, inputs: FiguresInputs, out: FiguresOutput
    ) -> Dict[str, float]:
        metrics: Dict[str, float] = {f"experiments.{p}_s": 0.0 for p in _PHASES}
        metrics["experiments.other_s"] = 0.0
        phases: Dict[str, float] = {}
        stats: Dict[str, List[float]] = {}
        for fig, manifest in out.manifests.items():
            timings = manifest.phase_timings_s
            phases.update(timings)
            named = {
                "testbed": sum(
                    v for k, v in timings.items()
                    if k.startswith(f"{fig}/testbed/") and k.count("/") == 2
                ),
                **{p: timings.get(f"{fig}/{p}", 0.0) for p in _PHASES[1:]},
            }
            metrics[f"experiments.{fig}_s"] = timings.get(fig, 0.0)
            for p, value in named.items():
                metrics[f"experiments.{p}_s"] += value
            metrics["experiments.other_s"] += (
                timings.get(fig, 0.0) - sum(named.values())
            )
            for key, value in manifest.run_stats.items():
                stats.setdefault(key, []).append(float(value))

        def total(key: str) -> float:
            return float(sum(stats.get(key, [])))

        def phase_sum(suffix: str) -> float:
            return sum(v for k, v in phases.items() if k.endswith(suffix))

        hits = total("testbed_cache_hits")
        misses = total("testbed_cache_misses")
        metrics.update({
            "topology.build_s": phase_sum("/testbed/network"),
            "workload.generate_s": phase_sum("/testbed/workload"),
            "landmarks.select_s": metrics["experiments.landmarks_s"],
            "probing.features_s": metrics["experiments.features_s"],
            "clustering.kmeans_s": phase_sum("/kmeans"),
            "simulator.run_s": metrics["experiments.simulate_s"],
            "simulator.events": total("worker_events"),
            "runtime.tasks": total("worker_tasks"),
            "runtime.busy_s": total("worker_busy_s"),
            "runtime.queue_wait_max_s": max(
                stats.get("worker_queue_wait_max_s", [0.0])
            ),
            "runtime.straggler_ratio": max(
                stats.get("worker_straggler_ratio", [0.0])
            ),
            "runtime.retries": total("worker_retries"),
            "runtime.testbed_cache_hits": hits,
            "runtime.testbed_cache_misses": misses,
            "runtime.testbed_cache_hit_ratio": hits / (hits + misses)
            if hits + misses else 0.0,
        })
        return metrics

    def jobs2_diagnostic(
        self, inputs: FiguresInputs, budget_s: float, runs: int = 3
    ) -> Dict[str, float]:
        """fig7 at ``jobs=2`` with the environment left as it is.

        Each pool worker starts its own BLAS thread pool, so on a small
        host the two workers oversubscribe the cores.  Runs stop early
        once ``budget_s`` is spent.  Diagnostic only: never gated.
        """
        walls: List[float] = []
        efficiencies: List[float] = []
        start = time.perf_counter()
        while len(walls) < runs and time.perf_counter() - start < budget_s:
            reset_cache()
            t0 = time.perf_counter()
            run = run_suite(
                figures=["fig7"], seed=inputs.seed, jobs=2, repetitions=1,
                worker_perf=True,
            )
            wall = time.perf_counter() - t0
            walls.append(wall)
            busy = run.manifests["fig7"].run_stats.get("worker_busy_s", 0.0)
            efficiencies.append(busy / (2 * wall))
        reset_cache()
        return {
            "runtime.jobs2_fig7_s": statistics.median(walls),
            "runtime.jobs2_fig7_max_s": max(walls),
            "runtime.jobs2_efficiency": statistics.median(efficiencies),
        }


NAMES = ("sim-read", "sim-update", "formation", "figures")


def make_workloads(scratch: Path) -> Dict[str, Any]:
    """Every workload by name; ``scratch`` holds the suite's output."""
    return {
        "sim-read": SimWorkload("sim-read", LARGE_SCENARIO),
        "sim-update": SimWorkload("sim-update", UPDATE_SCENARIO),
        "formation": FormationWorkload(),
        "figures": FiguresWorkload(scratch=scratch),
    }
