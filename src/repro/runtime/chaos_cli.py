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

This module also declares the options every figure-running command
shares (:func:`add_figure_run_args`) and their ``argparse`` types, so
``repro experiment``, ``repro chaos run`` and ``repro sanitize run``
parse them one way before handing them to
:func:`repro.experiments.run_suite`.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any, Callable, Optional, TextIO


def _checked_type(
    name: str,
    convert: Callable[[str], Any],
    accept: Callable[[Any], bool],
    requirement: str,
) -> Callable[[str], Any]:
    """An ``argparse`` type: ``convert`` the text, then ``accept`` it.

    A rejected value is a usage error (exit 2) before any work runs,
    never the scheduler's ``ValueError``.
    """
    def parse(text: str) -> Any:
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text!r}"
            )
        return value

    parse.__name__ = name  # argparse names the type in its messages
    return parse


positive_int = _checked_type(
    "positive_int", int, lambda v: v >= 1, "a positive integer"
)
non_negative_int = _checked_type(
    "non_negative_int", int, lambda v: v >= 0, "a non-negative integer"
)
timeout_seconds = _checked_type(
    "timeout_seconds", float, lambda v: v > 0 and math.isfinite(v),
    "positive and finite seconds",
)
backoff_seconds = _checked_type(
    "backoff_seconds", float, lambda v: v >= 0 and math.isfinite(v),
    "finite seconds >= 0",
)
non_negative_float = _checked_type(
    "non_negative_float", float, lambda v: v >= 0, "a number >= 0"
)


def add_registry_arg(parser: argparse.ArgumentParser) -> None:
    """The ``--registry`` option of every command that appends runs."""
    parser.add_argument(
        "--registry", metavar="DIR",
        help="append this run's manifest to the run registry at DIR "
             "(default: $REPRO_REGISTRY; see 'repro runs')",
    )


def add_figure_run_args(
    parser: argparse.ArgumentParser, supervised: bool = True
) -> None:
    """The options of every command that runs figures through run_suite.

    ``supervised`` adds the scheduler's timeout/retry settings; a
    command changes a default with ``parser.set_defaults``.
    """
    parser.add_argument("--seed", type=int)
    parser.add_argument("--repetitions", type=positive_int)
    parser.add_argument("--paper-scale", action="store_true")
    parser.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
        help="fan independent work units across N worker processes "
             "(results are bit-identical to --jobs 1; default "
             "%(default)s)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="persist built networks/workloads under DIR "
             "(e.g. results/cache) and reuse them across runs",
    )
    add_registry_arg(parser)
    if not supervised:
        return
    parser.add_argument(
        "--task-timeout", type=timeout_seconds, metavar="S",
        help="per-attempt deadline in seconds; an attempt running "
             "longer is presumed wedged and re-dispatched (with "
             "--jobs > 1)",
    )
    parser.add_argument(
        "--max-retries", type=non_negative_int, default=3, metavar="N",
        help="extra attempts a crashed/timed-out work unit may consume "
             "before the run fails (default %(default)s)",
    )
    parser.add_argument(
        "--retry-backoff", type=backoff_seconds, default=0.1, metavar="S",
        help="base pause before re-dispatching after a worker failure, "
             "doubling per consecutive failure up to 5s "
             "(default %(default)s)",
    )


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
    _add_chaos_args(run)
    add_figure_run_args(run)
    # A killed worker must leave survivors: chaos needs --jobs >= 2.
    run.set_defaults(jobs=2, max_retries=5, retry_backoff=0.05)
    run.add_argument(
        "--out", metavar="PATH", help="write the figure result as JSON"
    )
    run.add_argument(
        "--manifest", metavar="PATH",
        help="write the run manifest (incl. worker_retries) as JSON",
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
    from repro.experiments import run_suite
    from repro.obs.manifest import merge_sparse_stats
    from repro.runtime import chaos as chaos_module
    from repro.runtime.scheduler import task_hooks

    if args.jobs < 2:
        print(
            "error: chaos needs --jobs >= 2 — a killed worker must "
            "leave survivors for the scheduler to supervise",
            file=err,
        )
        return 2

    policy = _policy(args)
    delays_before = chaos_module.delays_total()
    # Installed outermost, so the policy enters before every other hook.
    with task_hooks(policy):
        run = run_suite(
            [args.figure],
            paper_scale=args.paper_scale,
            repetitions=args.repetitions,
            seed=args.seed,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            worker_perf=True,
            task_timeout_s=args.task_timeout,
            max_retries=args.max_retries,
            retry_backoff_s=args.retry_backoff,
        )
    manifest = run.manifests[args.figure]

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

        save_result(run.results[args.figure], args.out)
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
