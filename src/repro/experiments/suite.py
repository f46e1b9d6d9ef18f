"""Run figures and archive what they produce, for every command.

``run_suite`` is the only code that builds the task scheduler,
configures the testbed cache and installs the task journal, so
``repro experiment`` (one figure or ``all``), ``repro chaos run`` and
``repro sanitize run`` all run figures the same way.  Each archived
figure gets ``<fig>.json``, ``<fig>.csv`` and a ``<fig>.manifest.json``
run manifest (seed/scale arguments plus per-phase timings), next to a
combined ``summary.md``.
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
    #: Per figure, the sweep's TaskJournal (registry runs only).
    journals: Dict[str, Any] = field(default_factory=dict)
    #: Per figure, the run id its manifest was registered under.
    run_ids: Dict[str, str] = field(default_factory=dict)

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

    :func:`run_suite` owns scheduler/cache setup (``use_scheduler``
    must already be active for ``jobs`` to matter here — ``jobs`` is
    only recorded).  Returns the figure's result plus a manifest carrying
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
    resume: Optional[str] = None,
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
    sweeps.  ``registry_dir`` is an explicit run-registry root (read
    from no environment variable here): each figure journals its work
    units under ``journals/<sweep_id>.jsonl`` in record-only mode and
    its manifest is appended as ``kind="experiment"``.  ``resume``
    (``"auto"``, or a sweep-id prefix of at least 4 characters that
    every selected figure must match) serves completed units from the
    journals.  None of these changes the archived results.

    ``task_timeout_s``/``max_retries``/``retry_backoff_s`` configure the
    scheduler's supervised mode (crash/deadline retries with capped
    exponential backoff — see :mod:`repro.runtime.scheduler`); retries
    re-run pure work units, so they too leave results byte-identical.
    Task hooks the caller installed (a chaos policy, the sanitizer's
    ledger hook) stay outermost.
    """
    selected = list(figures) if figures is not None else sorted(REGISTRY)
    unknown = [f for f in selected if f not in REGISTRY]
    if unknown:
        raise ReproError(
            f"unknown figures: {', '.join(unknown)}; "
            f"known: {', '.join(sorted(REGISTRY))}"
        )
    kwargs = {
        experiment_id: figure_kwargs(
            experiment_id, paper_scale, repetitions, seed
        )
        for experiment_id in selected
    }

    run_registry = None
    journals: Dict[str, Any] = {}
    if registry_dir is not None:
        from repro.obs.registry import RunRegistry
        from repro.runtime.journal import TaskJournal, sweep_id_for

        run_registry = RunRegistry(registry_dir)
        for experiment_id, figure_args in kwargs.items():
            sweep_id = sweep_id_for(experiment_id, figure_args)
            if resume not in (None, "auto") and (
                len(resume) < 4 or not sweep_id.startswith(resume)
            ):
                raise ReproError(
                    f"--resume {resume!r} does not match this sweep: the "
                    f"figure/seed/repetitions given here derive sweep id "
                    f"{sweep_id} for {experiment_id}; re-run with the "
                    f"exact flags of the interrupted run (or pass 'auto')"
                )
            journals[experiment_id] = TaskJournal(
                run_registry.journal_path(sweep_id),
                resume=resume is not None,
            )
    elif resume is not None:
        raise ReproError(
            "--resume requires --registry DIR (or $REPRO_REGISTRY): "
            "the task journal lives under the registry root"
        )

    out_path: Optional[Path] = None
    if output_dir is not None:
        out_path = Path(output_dir)
        out_path.mkdir(parents=True, exist_ok=True)

    if cache_dir is not None:
        configure_cache(disk_dir=cache_dir)

    run = SuiteRun(results={}, output_dir=out_path, journals=journals)
    scheduler = TaskScheduler(
        jobs,
        task_timeout_s=task_timeout_s,
        max_retries=max_retries,
        retry_backoff_s=retry_backoff_s,
    )
    with scheduler, use_scheduler(scheduler):
        for experiment_id in selected:
            result, manifest = run_figure(
                experiment_id, kwargs[experiment_id], jobs=jobs,
                worker_perf=worker_perf, progress=progress,
                journal=journals.get(experiment_id),
            )
            run.results[experiment_id] = result
            run.manifests[experiment_id] = manifest
            if run_registry is not None:
                appended = run_registry.append(manifest, kind="experiment")
                run.run_ids[experiment_id] = appended.record.run_id
            if out_path is not None:
                save_result(result, out_path / f"{experiment_id}.json")
                export_experiment_result(
                    result, out_path / f"{experiment_id}.csv"
                )
                save_manifest(
                    manifest, out_path / f"{experiment_id}.manifest.json"
                )

    if out_path is not None:
        (out_path / "summary.md").write_text(
            run.summary_markdown(), encoding="utf-8"
        )
    return run
