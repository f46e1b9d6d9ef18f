"""The ``repro chaos`` subcommands.

``repro chaos run`` executes one registered figure experiment with a
deterministic :class:`~repro.runtime.chaos.ChaosPolicy` installed:
workers are killed (``os._exit``) and/or stalled at content-derived
task indices while the supervised scheduler retries them.  The run must
still exit 0 and archive **byte-identical** results to a clean run —
that is the whole point.  ``repro chaos plan`` prints which task
indices a given seed/rate combination will fault, so tests and CI can
pin seeds that actually kill something.

The canonical CI use::

    repro experiment fig6 --repetitions 1 --out clean.json
    repro chaos run --figure fig6 --repetitions 1 --kill-rate 0.2 \\
        --jobs 2 --out chaotic.json
    cmp clean.json chaotic.json

Exit codes: ``0`` — run survived (or plan printed); ``1`` — runtime
failure (e.g. retry budget exhausted); ``2`` — usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any, Optional, TextIO


def timeout_seconds(text: str) -> float:
    """``argparse`` type of ``--task-timeout``: positive, finite seconds.

    Shared by ``repro experiment`` and ``repro chaos run`` so a bad value
    is a usage error (exit 2) rather than the scheduler's ``ValueError``.
    """
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be positive and finite seconds, got {text!r}"
        )
    return value


def positive_int(text: str) -> int:
    """``argparse`` type of ``--jobs`` and ``--repetitions``: an int >= 1.

    Shared by ``repro experiment``, ``repro sanitize run`` and ``repro
    chaos run`` so a zero or negative count is a usage error (exit 2)
    before any work runs.
    """
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return value


def backoff_seconds(text: str) -> float:
    """``argparse`` type of ``--retry-backoff``: finite seconds >= 0."""
    value = float(text)
    if not (value >= 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be finite seconds >= 0, got {text!r}"
        )
    return value


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``chaos`` subcommands to a (sub)parser."""
    from repro.experiments import REGISTRY

    sub = parser.add_subparsers(dest="chaos_command", required=True)

    run = sub.add_parser(
        "run",
        help="run one figure with deterministic worker kills/delays "
             "under the supervised scheduler",
    )
    run.add_argument("--figure", required=True, choices=sorted(REGISTRY))
    run.add_argument(
        "--jobs", type=positive_int, default=2, metavar="N",
        help="worker processes (>= 2: a killed worker must leave "
             "survivors; default 2)",
    )
    _add_chaos_args(run)
    run.add_argument("--seed", type=int)
    run.add_argument("--repetitions", type=positive_int)
    run.add_argument("--paper-scale", action="store_true")
    run.add_argument(
        "--cache-dir", metavar="DIR",
        help="persist built testbeds under DIR (shared with "
             "'repro experiment')",
    )
    run.add_argument(
        "--task-timeout", type=timeout_seconds, metavar="S",
        help="per-attempt deadline in seconds (needed for --delay-rate "
             "to actually trigger timeout recovery)",
    )
    run.add_argument(
        "--max-retries", type=int, default=5, metavar="N",
        help="extra attempts each task may consume (default 5)",
    )
    run.add_argument(
        "--retry-backoff", type=backoff_seconds, default=0.05, metavar="S",
        help="base backoff before re-dispatch, doubling per consecutive "
             "failure (default 0.05)",
    )
    run.add_argument(
        "--out", metavar="PATH", help="write the figure result as JSON"
    )
    run.add_argument(
        "--manifest", metavar="PATH",
        help="write the run manifest (incl. worker_retries) as JSON",
    )
    run.add_argument(
        "--registry", metavar="DIR",
        help="append this run's manifest to the run registry at DIR "
             "(default: $REPRO_REGISTRY)",
    )

    plan = sub.add_parser(
        "plan",
        help="print which task indices a chaos seed/rate combination "
             "faults (first attempts)",
    )
    plan.add_argument(
        "--tasks", type=int, required=True, metavar="N",
        help="number of work units in the fan to preview",
    )
    _add_chaos_args(plan)


def _add_chaos_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kill-rate", type=float, default=0.0, metavar="P",
        help="per-task probability of killing the worker (os._exit) at "
             "the task boundary",
    )
    parser.add_argument(
        "--delay-rate", type=float, default=0.0, metavar="P",
        help="per-task probability of stalling before the unit runs",
    )
    parser.add_argument(
        "--delay-s", type=float, default=0.05, metavar="S",
        help="stall duration when a delay fires (default 0.05)",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=0, metavar="SEED",
        help="seed of the isolated 'faults' RNG branch the plan is "
             "derived from (default 0)",
    )
    parser.add_argument(
        "--faults-per-task", type=int, default=1, metavar="N",
        help="attempts of one task that may fault (default 1: the "
             "retry always succeeds; raise to test retry exhaustion)",
    )


def _policy(args: argparse.Namespace) -> Any:
    from repro.runtime.chaos import ChaosConfig, ChaosPolicy

    return ChaosPolicy(ChaosConfig(
        kill_rate=args.kill_rate,
        delay_rate=args.delay_rate,
        delay_s=args.delay_s,
        seed=args.chaos_seed,
        faults_per_task=args.faults_per_task,
    ))


def _run(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    from repro.experiments.suite import figure_kwargs, run_figure
    from repro.obs.manifest import merge_sparse_stats
    from repro.runtime import TaskScheduler, configure_cache, use_scheduler
    from repro.runtime import chaos as chaos_module
    from repro.runtime.scheduler import task_hooks

    if args.jobs < 2:
        print(
            "error: chaos needs --jobs >= 2 — a killed worker must "
            "leave survivors for the scheduler to supervise",
            file=err,
        )
        return 2

    kwargs = figure_kwargs(
        args.figure, args.paper_scale, args.repetitions, args.seed
    )
    if args.cache_dir:
        configure_cache(disk_dir=args.cache_dir)

    policy = _policy(args)
    delays_before = chaos_module.delays_total()
    scheduler = TaskScheduler(
        args.jobs,
        task_timeout_s=args.task_timeout,
        max_retries=args.max_retries,
        retry_backoff_s=args.retry_backoff,
    )
    # Installed outermost, so the policy enters before every other hook.
    with task_hooks(policy), scheduler, use_scheduler(scheduler):
        result, manifest = run_figure(
            args.figure, kwargs, jobs=args.jobs, worker_perf=True,
        )

    manifest.label = f"chaos:{args.figure}"
    manifest.config.update({
        "chaos_kill_rate": args.kill_rate,
        "chaos_delay_rate": args.delay_rate,
        "chaos_seed": args.chaos_seed,
        "chaos_faults_per_task": args.faults_per_task,
    })
    merge_sparse_stats(manifest, {
        "chaos_delays": float(chaos_module.delays_total() - delays_before),
    })

    stats = manifest.run_stats
    print(
        f"chaos ok: {args.figure} survived "
        f"(retries={stats.get('worker_retries', 0.0):.0f}, "
        f"timeouts={stats.get('worker_timeouts', 0.0):.0f}, "
        f"delays={stats.get('chaos_delays', 0.0):.0f}) — results are "
        f"those of a clean run",
        file=out,
    )
    if args.out:
        from repro.persist import save_result

        save_result(result, args.out)
        print(f"wrote {args.out}", file=out)
    if args.manifest:
        from repro.persist import save_manifest

        save_manifest(manifest, args.manifest)
        print(f"wrote manifest to {args.manifest}", file=out)
    from repro.obs.registry import resolve_registry

    registry = resolve_registry(args.registry)
    if registry is not None:
        appended = registry.append(manifest, kind="chaos")
        print(f"registered run {appended.record.run_id}", file=out)
    return 0


def _plan(args: argparse.Namespace, out: TextIO) -> int:
    plan = _policy(args).preview(args.tasks)
    kills = plan["kills"]
    delays = plan["delays"]
    print(
        f"chaos plan over {args.tasks} task(s), seed {args.chaos_seed}: "
        f"{len(kills)} kill(s) at {kills}, "
        f"{len(delays)} delay(s) at {delays}",
        file=out,
    )
    return 0


def run_chaos(
    args: argparse.Namespace,
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """Execute ``repro chaos`` for parsed ``args``; returns exit code."""
    out: TextIO = stdout if stdout is not None else sys.stdout
    err: TextIO = stderr if stderr is not None else sys.stderr
    if args.chaos_command == "run":
        return _run(args, out, err)
    return _plan(args, out)
