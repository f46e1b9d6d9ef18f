"""Run the full figure suite and archive the results.

``run_suite`` executes every registered experiment, writes each result
as JSON and CSV into an output directory, and produces a markdown
summary (one table per figure) — the artifact a reproduction run leaves
behind.  Each archived figure also gets a ``<fig>.manifest.json`` run
manifest carrying the seed/scale arguments and the per-phase timings
(testbed build, scheme runs, simulation) collected while it ran.  The
CLI exposes it as ``repro experiment all``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.analysis.export import export_experiment_result
from repro.analysis.report import ExperimentResult
from repro.errors import ReproError
from repro.experiments.registry import REGISTRY
from repro.obs.manifest import RunManifest, build_manifest, merge_sparse_stats
from repro.obs.profiling import PhaseRegistry, activate
from repro.persist import save_manifest, save_result
from repro.runtime.cache import (
    STAT_FIELDS,
    configure_cache,
    get_cache,
    stats_delta,
)
from repro.runtime.scheduler import (
    TaskScheduler,
    active_scheduler,
    task_hooks,
    use_scheduler,
)

PathLike = Union[str, Path]


@dataclass(frozen=True)
class SuiteRun:
    """Outcome of one full-suite run."""

    results: Dict[str, ExperimentResult]
    output_dir: Optional[Path]
    manifests: Dict[str, RunManifest] = field(default_factory=dict)

    def summary_markdown(self) -> str:
        """A markdown report with one section per figure."""
        lines = ["# Reproduction suite results", ""]
        for experiment_id in sorted(self.results):
            result = self.results[experiment_id]
            lines.append(f"## {experiment_id}")
            lines.append("")
            lines.append("```")
            lines.append(result.render())
            lines.append("```")
            lines.append("")
        return "\n".join(lines)


def figure_kwargs(
    experiment_id: str,
    paper_scale: bool,
    repetitions: Optional[int],
    seed: Optional[int],
) -> Dict[str, Any]:
    """The registered runner's arguments for one figure run.

    ``repetitions`` is passed only to runners whose signature names it
    (fig3 has no repetitions and ignores the option).
    """
    kwargs: Dict[str, Any] = {}
    if paper_scale:
        kwargs["paper_scale"] = True
    if seed is not None:
        kwargs["seed"] = seed
    runner = REGISTRY[experiment_id]
    if (
        repetitions is not None
        and "repetitions" in inspect.signature(runner).parameters
    ):
        kwargs["repetitions"] = repetitions
    return kwargs


def run_figure(
    experiment_id: str,
    kwargs: Dict[str, Any],
    jobs: int = 1,
    worker_perf: bool = False,
    progress: bool = False,
    journal: Optional[Any] = None,
) -> Tuple[ExperimentResult, RunManifest]:
    """Run one registered figure under full manifest instrumentation.

    The caller owns scheduler/cache setup (``use_scheduler`` must
    already be active for ``jobs`` to matter here — ``jobs`` is only
    recorded).  Returns the figure's result plus a manifest carrying
    phase timings, testbed-cache counters, and — when ``worker_perf``
    or ``progress`` is set — the scheduler's ``worker_*`` summary.
    The telemetry module is imported only when actually enabled, so
    plain runs never load it.

    ``journal`` (a :class:`repro.runtime.journal.TaskJournal`) is
    installed around the run for checkpoint/resume; its hit/record
    counts and any supervised-mode retry/timeout charges land in
    ``run_stats`` only when non-zero, so undisturbed manifests are
    unchanged.
    """
    collector = None
    if worker_perf or progress:
        from repro.runtime.telemetry import PerfCollector, ProgressReporter

        reporter = (
            ProgressReporter(label=experiment_id) if progress else None
        )
        collector = PerfCollector(
            jobs=jobs, label=experiment_id, progress=reporter
        )
    cache = get_cache()
    registry = PhaseRegistry()
    cache_before = cache.stats()
    scheduler = active_scheduler()
    retry_before = scheduler.retry_stats() if scheduler is not None else {}
    hooks = [hook for hook in (collector, journal) if hook is not None]
    with task_hooks(*hooks), activate(registry), registry.time(experiment_id):
        result = REGISTRY[experiment_id](**kwargs)
    cache_stats = stats_delta(cache_before, cache.stats())
    manifest = build_manifest(
        label=experiment_id, seed=kwargs.get("seed"), registry=registry
    )
    manifest.config = {k: v for k, v in kwargs.items()}
    manifest.config["jobs"] = jobs
    manifest.run_stats.update({
        f"testbed_cache_{name}": float(cache_stats.get(name, 0))
        for name in STAT_FIELDS
    })
    retry_after = scheduler.retry_stats() if scheduler is not None else {}
    retries = {
        f"worker_{kind}": float(
            retry_after.get(kind, 0) - retry_before.get(kind, 0)
        )
        for kind in ("retries", "timeouts")
    }
    if collector is not None:
        # The worker_* summary always carries the retry counts.
        manifest.run_stats.update(collector.summary())
        manifest.run_stats.update(retries)
    else:
        merge_sparse_stats(manifest, retries)
    if journal is not None:
        merge_sparse_stats(manifest, {
            "journal_hits": float(journal.hits),
            "journal_recorded": float(journal.recorded),
        })
    return result, manifest


def run_suite(
    figures: Optional[Sequence[str]] = None,
    output_dir: Optional[PathLike] = None,
    paper_scale: bool = False,
    repetitions: Optional[int] = None,
    seed: Optional[int] = None,
    jobs: int = 1,
    cache_dir: Optional[PathLike] = None,
    worker_perf: bool = False,
    progress: bool = False,
    registry_dir: Optional[PathLike] = None,
    task_timeout_s: Optional[float] = None,
    max_retries: int = 3,
    retry_backoff_s: float = 0.1,
) -> SuiteRun:
    """Run the selected figures (default: all) and archive results.

    ``output_dir`` (when given) receives ``<fig>.json``, ``<fig>.csv``
    and a combined ``summary.md``; it is created if missing.

    ``jobs`` fans each figure's independent work units across that many
    worker processes (see :mod:`repro.runtime.scheduler`); results are
    bit-identical to ``jobs=1``.  ``cache_dir`` enables the on-disk
    testbed cache (``results/cache/`` by convention), persisting built
    networks/workloads across runs and worker processes.

    ``worker_perf`` records per-task worker telemetry (wall, queue
    wait, cache hits, events/s) into each figure's manifest as a
    ``worker_*`` summary; ``progress`` adds a stderr heartbeat for long
    sweeps.  ``registry_dir`` appends every figure's manifest to the
    run registry at that root (see :mod:`repro.obs.registry`).  All
    three leave the archived results byte-identical — they only add
    observability around the same computation.

    ``task_timeout_s``/``max_retries``/``retry_backoff_s`` configure the
    scheduler's supervised mode (crash/deadline retries with capped
    exponential backoff — see :mod:`repro.runtime.scheduler`); retries
    re-run pure work units, so they too leave results byte-identical.
    """
    selected = list(figures) if figures is not None else sorted(REGISTRY)
    unknown = [f for f in selected if f not in REGISTRY]
    if unknown:
        raise ReproError(
            f"unknown figures: {', '.join(unknown)}; "
            f"known: {', '.join(sorted(REGISTRY))}"
        )

    out_path: Optional[Path] = None
    if output_dir is not None:
        out_path = Path(output_dir)
        out_path.mkdir(parents=True, exist_ok=True)

    if cache_dir is not None:
        configure_cache(disk_dir=cache_dir)

    run_registry = None
    if registry_dir is not None:
        from repro.obs.registry import RunRegistry

        run_registry = RunRegistry(registry_dir)

    results: Dict[str, ExperimentResult] = {}
    manifests: Dict[str, RunManifest] = {}
    scheduler = TaskScheduler(
        jobs,
        task_timeout_s=task_timeout_s,
        max_retries=max_retries,
        retry_backoff_s=retry_backoff_s,
    )
    with scheduler, use_scheduler(scheduler):
        for experiment_id in selected:
            kwargs = figure_kwargs(
                experiment_id, paper_scale, repetitions, seed
            )
            result, manifest = run_figure(
                experiment_id, kwargs, jobs=jobs,
                worker_perf=worker_perf, progress=progress,
            )
            results[experiment_id] = result
            manifests[experiment_id] = manifest
            if run_registry is not None:
                run_registry.append(manifest, kind="experiment")
            if out_path is not None:
                save_result(result, out_path / f"{experiment_id}.json")
                export_experiment_result(
                    result, out_path / f"{experiment_id}.csv"
                )
                save_manifest(
                    manifest, out_path / f"{experiment_id}.manifest.json"
                )

    run = SuiteRun(results=results, output_dir=out_path, manifests=manifests)
    if out_path is not None:
        (out_path / "summary.md").write_text(
            run.summary_markdown(), encoding="utf-8"
        )
    return run
