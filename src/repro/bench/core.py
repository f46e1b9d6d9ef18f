"""Engine throughput measurement, persistence, and the regression gate.

A :class:`BenchScenario` pins every input the engine measurement
depends on, so two results are comparable exactly when their scenarios
— and hence event counts — match.  :func:`run_bench` measures a map of
named scenarios (plain and instrumented runs, best-of-N rounds) and
:func:`gate_bench` turns a baseline + candidate pair into a pass/fail
decision with a relative tolerance for machine variance.

The committed baseline lives under ``benchmarks/baselines/``; the CI
``perf-smoke`` job runs ``repro bench gate`` against it with a
generous tolerance so only real regressions (not runner noise) fail
the build.  End-to-end and per-layer timings belong to the benchmark
of record, ``perfbench/run.py``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple, Union

from repro.errors import BenchmarkError
from repro.obs.profiling import perf_seconds

PathLike = Union[str, Path]

#: Format 3 stores every measured scenario in one ``scenarios`` map
#: (``name -> {"scenario": {...}, "engine": {...}}``).
BENCH_FORMAT_VERSION = 3

#: Default relative throughput drop treated as a regression.  An
#: events/s metric below ``(1 - tolerance) x baseline`` fails the gate;
#: CI passes a larger value to absorb shared-runner variance.
DEFAULT_TOLERANCE = 0.15

_MEASURES = ("all", "plain")


@dataclass(frozen=True)
class BenchScenario:
    """Every input the engine measurement depends on.

    The workload/cache knobs default to the library defaults, which is
    also what a scenario payload that omits them gets.
    """

    num_caches: int = 100
    network_seed: int = 5
    num_documents: int = 300
    requests_per_cache: int = 100
    workload_seed: int = 9
    rounds: int = 3
    zipf_alpha: float = 0.9
    dynamic_fraction: float = 0.6
    update_interarrival_ms: float = 400.0
    capacity_fraction: float = 0.1
    #: 1 = one cooperative group of everything; N > 1 partitions the
    #: caches round-robin into N groups.
    num_groups: int = 1
    #: ``"all"`` measures plain and instrumented runs; ``"plain"``
    #: measures only the plain run (used by the large scenario, where
    #: extra full 1M-event sweeps would dominate CI).
    measure: str = "all"

    def __post_init__(self) -> None:
        if self.measure not in _MEASURES:
            raise BenchmarkError(
                f"unknown bench measure {self.measure!r}; "
                f"expected one of {', '.join(_MEASURES)}"
            )
        if self.rounds < 1:
            raise BenchmarkError(
                f"bench rounds must be >= 1, got {self.rounds}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BenchScenario":
        specs = dataclasses.fields(cls)
        unknown = sorted(set(payload) - {spec.name for spec in specs})
        if unknown:
            raise BenchmarkError(
                f"unknown bench scenario key(s): {', '.join(unknown)}"
            )
        coerced: Dict[str, Any] = {}
        try:
            for spec in specs:
                if spec.name not in payload:
                    continue
                value = payload[spec.name]
                if spec.type in ("int", int):
                    coerced[spec.name] = int(value)
                elif spec.type in ("float", float):
                    coerced[spec.name] = float(value)
                else:
                    coerced[spec.name] = str(value)
            return cls(**coerced)
        except (TypeError, ValueError) as exc:
            raise BenchmarkError(
                f"malformed bench scenario: {payload!r}"
            ) from exc


#: The canonical scenario: a 10,076-event single-group run on the
#: 100-cache seed-5 network.
DEFAULT_SCENARIO = BenchScenario()

#: A fast scenario for tests and quick local sanity checks.
SMALL_SCENARIO = BenchScenario(
    num_caches=30, num_documents=80, requests_per_cache=30, rounds=1
)

#: The 1M-event steady-state scenario: a hot, mostly-static corpus on a
#: 100-cache network split into ten groups, sized so caches warm up and
#: the loop spends its time in the request hot path rather than cold
#: misses.  This is the ``plain_events_per_sec`` number the 500k-events/s
#: target tracks; the instrumented sweep is skipped
#: (``measure="plain"``) to keep the CI gate affordable.
LARGE_SCENARIO = BenchScenario(
    num_caches=100,
    num_documents=150,
    requests_per_cache=10_000,
    rounds=2,
    zipf_alpha=1.2,
    dynamic_fraction=0.1,
    update_interarrival_ms=2_000.0,
    capacity_fraction=1.0,
    num_groups=10,
    measure="plain",
)

_SCENARIOS = {
    "default": DEFAULT_SCENARIO,
    "small": SMALL_SCENARIO,
    "large": LARGE_SCENARIO,
}


def scenario_by_name(name: str) -> BenchScenario:
    """Resolve a named scenario (``default``, ``small``, or ``large``)."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise BenchmarkError(
            f"unknown bench scenario {name!r}; "
            f"known: {', '.join(sorted(_SCENARIOS))}"
        ) from None


@dataclass(frozen=True)
class ScenarioRun:
    """One named scenario's definition and its measured engine numbers."""

    scenario: BenchScenario
    #: events, plain (and for ``measure="all"`` instrumented) events_per_sec
    engine: Dict[str, float]


@dataclass
class BenchResult:
    """One benchmark measurement (or a loaded baseline)."""

    label: str
    cores: int = 1
    # Run metadata only — the stamp never feeds back into measurement.
    created_unix: float = field(default_factory=time.time)  # repro-lint: allow[sim-wallclock]
    scenarios: Dict[str, ScenarioRun] = field(default_factory=dict)

    def metrics(self) -> Dict[str, float]:
        """Flat ``scenario.metric -> value`` view of every gated metric."""
        return {
            f"{name}.{metric}": float(value)
            for name, run in sorted(self.scenarios.items())
            for metric, value in sorted(run.engine.items())
            if metric.endswith("_per_sec")
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format_version": BENCH_FORMAT_VERSION,
            "kind": "bench_result",
            "label": self.label,
            "created_unix": self.created_unix,
            "cores": self.cores,
            "scenarios": {
                name: {
                    "scenario": run.scenario.to_dict(),
                    "engine": dict(run.engine),
                }
                for name, run in self.scenarios.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BenchResult":
        try:
            return cls(
                label=str(payload.get("label", "")),
                cores=int(payload.get("cores", 1)),
                created_unix=float(payload.get("created_unix", 0.0)),
                scenarios={
                    str(name): ScenarioRun(
                        scenario=BenchScenario.from_dict(entry["scenario"]),
                        engine={
                            str(k): float(v)
                            for k, v in entry["engine"].items()
                        },
                    )
                    for name, entry in payload["scenarios"].items()
                },
            )
        except (TypeError, ValueError, AttributeError, KeyError) as exc:
            raise BenchmarkError(
                f"malformed bench result payload: {exc!r}"
            ) from exc


def save_bench(result: BenchResult, path: PathLike) -> None:
    """Write a bench result to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench(path: PathLike) -> BenchResult:
    """Read a bench result written by :func:`save_bench`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise BenchmarkError(f"cannot read bench result {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BenchmarkError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != "bench_result":
        raise BenchmarkError(f"{path} is not a bench result")
    version = payload.get("format_version")
    if version != BENCH_FORMAT_VERSION:
        raise BenchmarkError(
            f"{path} has bench format version {version}, "
            f"expected {BENCH_FORMAT_VERSION}"
        )
    return BenchResult.from_dict(payload)


# -- measurement --------------------------------------------------------


def _best_of(fn: Any, rounds: int) -> float:
    """Minimum wall seconds over ``rounds`` runs of ``fn``."""
    best = float("inf")
    for _ in range(rounds):
        start = perf_seconds()
        fn()
        best = min(best, perf_seconds() - start)
    return best


def _build_bench_testbed(
    scenario: BenchScenario,
) -> Tuple[Any, Any, Any, Any]:
    from repro.config import (
        CacheConfig,
        DocumentConfig,
        SimulationConfig,
        WorkloadConfig,
    )
    from repro.core.groups import (
        GroupingResult,
        groups_from_labels,
        single_group,
    )
    from repro.topology import build_network
    from repro.workload import generate_workload

    network = build_network(
        num_caches=scenario.num_caches, seed=scenario.network_seed
    )
    workload = generate_workload(
        network.cache_nodes,
        WorkloadConfig(
            documents=DocumentConfig(
                num_documents=scenario.num_documents,
                dynamic_fraction=scenario.dynamic_fraction,
            ),
            requests_per_cache=scenario.requests_per_cache,
            zipf_alpha=scenario.zipf_alpha,
            mean_update_interarrival_ms=scenario.update_interarrival_ms,
        ),
        seed=scenario.workload_seed,
    )
    if scenario.num_groups <= 1:
        grouping = single_group(network.cache_nodes)
    else:
        grouping = GroupingResult(
            scheme="bench-round-robin",
            groups=groups_from_labels(
                network.cache_nodes,
                [
                    node % scenario.num_groups
                    for node in network.cache_nodes
                ],
            ),
        )
    config = SimulationConfig(
        cache=CacheConfig(capacity_fraction=scenario.capacity_fraction)
    )
    return network, workload, grouping, config


def run_engine_bench(scenario: BenchScenario) -> Dict[str, float]:
    """Measure event-loop throughput for one scenario.

    Returns ``events`` (loop length — the comparability anchor) and
    best-of-``rounds`` events/s for a plain run and — for
    ``measure="all"`` scenarios — a fully instrumented run (trace +
    sampler).
    """
    from repro.obs import MetricsSampler, Observer, TraceCollector
    from repro.simulator import simulate

    network, workload, grouping, config = _build_bench_testbed(scenario)

    # The event count is the workload's requests plus its update
    # barriers — a pure function of the scenario, counted without
    # paying for an extra instrumented run.
    events = len(workload.requests) + len(workload.updates)

    t_plain = _best_of(
        lambda: simulate(network, grouping, workload, config=config),
        scenario.rounds,
    )
    metrics = {
        "events": float(events),
        "plain_events_per_sec": events / t_plain,
    }
    if scenario.measure == "plain":
        return metrics
    t_instrumented = _best_of(
        lambda: simulate(
            network, grouping, workload, config=config,
            observer=Observer(
                trace=TraceCollector(capacity=10_000),
                sampler=MetricsSampler(interval_ms=1_000.0),
            ),
        ),
        scenario.rounds,
    )
    metrics["instrumented_events_per_sec"] = events / t_instrumented
    return metrics


def run_bench(
    scenarios: Mapping[str, BenchScenario], label: str = "local"
) -> BenchResult:
    """Measure each named scenario.

    Every scenario is recorded with its full definition, so a later
    gate can re-measure it from the baseline file alone.
    """
    return BenchResult(
        label=label,
        cores=os.cpu_count() or 1,
        scenarios={
            name: ScenarioRun(scenario, run_engine_bench(scenario))
            for name, scenario in scenarios.items()
        },
    )


# -- comparison and gating ----------------------------------------------


@dataclass(frozen=True)
class BenchCheck:
    """One gated metric: baseline vs candidate."""

    name: str
    baseline: float
    candidate: float

    @property
    def ratio(self) -> float:
        """candidate / baseline (1.0 = unchanged, < 1 = slower)."""
        return self.candidate / self.baseline if self.baseline else 0.0

    def regressed(self, tolerance: float) -> bool:
        return self.ratio < 1.0 - tolerance


@dataclass(frozen=True)
class GateReport:
    """Outcome of gating a candidate against a baseline."""

    baseline_label: str
    candidate_label: str
    tolerance: float
    checks: Tuple[BenchCheck, ...]
    skipped: Tuple[str, ...] = ()

    @property
    def regressions(self) -> List[BenchCheck]:
        return [c for c in self.checks if c.regressed(self.tolerance)]

    @property
    def passed(self) -> bool:
        return bool(self.checks) and not self.regressions


def check_tolerance(tolerance: float) -> None:
    """Raise unless ``tolerance`` is a finite number >= 0."""
    if not (tolerance >= 0 and math.isfinite(tolerance)):
        raise BenchmarkError(
            f"tolerance must be a finite number >= 0, got {tolerance}"
        )


def gate_bench(
    baseline: BenchResult,
    candidate: BenchResult,
    tolerance: float = DEFAULT_TOLERANCE,
) -> GateReport:
    """Gate every throughput metric present in both results.

    Metrics only one side measured are listed as skipped.  Raises
    :class:`BenchmarkError` when the tolerance is invalid, when a
    shared scenario processed a different number of events on each
    side (its definition changed — re-baseline instead), or when no
    metric is shared.
    """
    check_tolerance(tolerance)
    for name in sorted(set(baseline.scenarios) & set(candidate.scenarios)):
        base_events = baseline.scenarios[name].engine.get("events")
        cand_events = candidate.scenarios[name].engine.get("events")
        if base_events is not None and cand_events is not None \
                and base_events != cand_events:
            raise BenchmarkError(
                f"bench results are not comparable: scenario {name!r} "
                f"processed {base_events:.0f} events in the baseline, "
                f"{cand_events:.0f} in the candidate (different "
                f"definitions — re-baseline instead of gating)"
            )
    base_metrics = baseline.metrics()
    cand_metrics = candidate.metrics()
    shared = sorted(set(base_metrics) & set(cand_metrics))
    if not shared:
        raise BenchmarkError(
            "bench results share no throughput metrics to gate on"
        )
    return GateReport(
        baseline_label=baseline.label,
        candidate_label=candidate.label,
        tolerance=tolerance,
        checks=tuple(
            BenchCheck(
                name=name,
                baseline=base_metrics[name],
                candidate=cand_metrics[name],
            )
            for name in shared
        ),
        skipped=tuple(sorted(set(base_metrics) ^ set(cand_metrics))),
    )
