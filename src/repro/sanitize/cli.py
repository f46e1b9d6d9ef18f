"""The ``repro sanitize`` subcommands.

``repro sanitize run`` executes one registered figure experiment under
the draw-ledger sanitizer and writes the ledger as JSON; ``repro
sanitize diff`` compares two ledgers and reports the first divergent
(phase, site) with its stack context.

Exit codes mirror ``repro lint``: ``0`` — success / ledgers match;
``1`` — divergence found; ``2`` — usage error.  The canonical CI use::

    repro sanitize run --figure fig6 --repetitions 1 --out serial.json
    repro sanitize run --figure fig6 --repetitions 1 --jobs 2 \\
        --out parallel.json
    repro sanitize diff serial.json parallel.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, TextIO

from repro.runtime.chaos_cli import add_figure_run_args
from repro.sanitize.instrument import sanitize
from repro.sanitize.ledger import (
    Ledger,
    diff_ledgers,
    render_diff_json,
    render_diff_text,
)


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``sanitize`` subcommands to an (sub)parser."""
    from repro.experiments import REGISTRY

    sub = parser.add_subparsers(dest="sanitize_command", required=True)

    run = sub.add_parser(
        "run",
        help="run one figure experiment under the sanitizer and write "
             "its draw ledger",
    )
    run.add_argument("--figure", required=True, choices=sorted(REGISTRY))
    run.add_argument("--out", required=True, metavar="PATH",
                     help="write the ledger JSON here")
    add_figure_run_args(run, supervised=False)

    diff = sub.add_parser(
        "diff", help="compare two ledgers; exit 1 on any divergence"
    )
    diff.add_argument("ledger_a", help="ledger JSON (e.g. the serial run)")
    diff.add_argument("ledger_b", help="ledger JSON (e.g. the --jobs run)")
    diff.add_argument(
        "--format", choices=["text", "json"], default="text",
        dest="output_format",
    )
    diff.add_argument(
        "--max-report", type=int, default=5, metavar="N",
        help="cap the divergences listed after the first (default 5)",
    )


def _run(args: argparse.Namespace, out: TextIO) -> int:
    from repro.experiments import run_suite

    meta = {
        "figure": args.figure,
        "jobs": args.jobs,
        "seed": args.seed,
        "repetitions": args.repetitions,
        "paper_scale": bool(args.paper_scale),
    }
    with sanitize(meta=meta) as state:
        with state.phase(f"experiment/{args.figure}"):
            run_suite(
                [args.figure],
                paper_scale=args.paper_scale,
                repetitions=args.repetitions,
                seed=args.seed,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
            )
    state.ledger.save(args.out)
    sites = sum(1 for _ in state.ledger.sites())
    print(
        f"wrote {args.out}: {state.ledger.total_draws()} draws/events "
        f"across {sites} sites in {len(state.ledger.phases)} phase(s)",
        file=out,
    )
    _maybe_register(args, state, sites)
    return 0


def _maybe_register(args: argparse.Namespace, state, sites: int) -> None:
    """Append a summary manifest when a run registry is configured."""
    from repro.obs.registry import resolve_registry

    registry = resolve_registry(args.registry)
    if registry is None:
        return
    from repro.obs.manifest import RunManifest

    manifest = RunManifest(label=f"sanitize:{args.figure}", seed=args.seed)
    manifest.config = {
        "figure": args.figure,
        "jobs": args.jobs,
        "repetitions": args.repetitions,
        "paper_scale": bool(args.paper_scale),
    }
    manifest.run_stats = {
        "draws": float(state.ledger.total_draws()),
        "sites": float(sites),
        "phases": float(len(state.ledger.phases)),
    }
    registry.append(manifest, kind="sanitize")


def _diff(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    for path in (args.ledger_a, args.ledger_b):
        if not Path(path).exists():
            print(f"error: ledger not found: {path}", file=err)
            return 2
    try:
        ledger_a = Ledger.load(args.ledger_a)
        ledger_b = Ledger.load(args.ledger_b)
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return 2
    result = diff_ledgers(ledger_a, ledger_b)
    if args.output_format == "json":
        out.write(render_diff_json(result))
    else:
        print(
            render_diff_text(
                result,
                label_a=args.ledger_a,
                label_b=args.ledger_b,
                max_report=args.max_report,
            ),
            file=out,
        )
    return 0 if result.clean else 1


def run_sanitize(
    args: argparse.Namespace,
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """Execute ``repro sanitize`` for parsed ``args``; returns exit code."""
    out: TextIO = stdout if stdout is not None else sys.stdout
    err: TextIO = stderr if stderr is not None else sys.stderr
    if args.sanitize_command == "run":
        return _run(args, out)
    return _diff(args, out, err)
