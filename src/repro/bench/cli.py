"""The ``repro bench`` subcommands.

::

    repro bench run  [--scenarios default,large] [--rounds N] [--label L]
                     [--out PATH] [--registry DIR]
    repro bench gate --baseline PATH [--candidate PATH]
                     [--tolerance F] [--out PATH] [--format json]

``gate`` without ``--candidate`` measures a fresh result using the
baseline's own scenarios, so CI needs exactly one committed file::

    repro bench gate --baseline benchmarks/baselines/BENCH_engine_main.json \\
        --tolerance 0.6

Exit codes mirror ``repro lint``/``sanitize``: ``0`` pass, ``1`` a
throughput metric regressed beyond the tolerance, ``2`` usage error
(unreadable/incomparable results, invalid scenario or tolerance).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Dict, Optional, TextIO

from repro.bench.core import (
    DEFAULT_TOLERANCE,
    BenchResult,
    BenchScenario,
    GateReport,
    check_tolerance,
    gate_bench,
    load_bench,
    run_bench,
    save_bench,
    scenario_by_name,
)
from repro.errors import BenchmarkError
from repro.utils.tables import Table


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``bench`` subcommands to a (sub)parser."""
    sub = parser.add_subparsers(dest="bench_command", required=True)

    run = sub.add_parser("run", help="measure engine throughput")
    run.add_argument("--scenarios", default="default", metavar="A,B",
                     help="comma-separated named scenarios to measure "
                          "(default, small, large; default: default)")
    run.add_argument("--rounds", type=int, metavar="N",
                     help="best-of-N timing rounds (default: each "
                          "scenario's own)")
    run.add_argument("--label", default="local")
    run.add_argument("--out", metavar="PATH",
                     help="write the result JSON here")
    run.add_argument("--registry", metavar="DIR",
                     help="also append the result to the run registry "
                          "at DIR (default: $REPRO_REGISTRY)")

    gate = sub.add_parser(
        "gate",
        help="fail (exit 1) when the candidate regresses vs the baseline",
    )
    gate.add_argument("--baseline", required=True, metavar="PATH")
    gate.add_argument("--candidate", metavar="PATH",
                      help="pre-measured candidate; omitted = measure "
                           "fresh with the baseline's scenarios")
    gate.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                      metavar="F",
                      help=f"relative drop treated as a regression "
                           f"(default {DEFAULT_TOLERANCE})")
    gate.add_argument("--out", metavar="PATH",
                      help="also write the (fresh) candidate result here")
    gate.add_argument("--format", choices=["text", "json"], default="text",
                      dest="output_format")


def _cmd_run(args: argparse.Namespace, out: TextIO) -> int:
    scenarios: Dict[str, BenchScenario] = {}
    for name in (part.strip() for part in args.scenarios.split(",")):
        if name:
            scenario = scenario_by_name(name)
            if args.rounds is not None:
                scenario = dataclasses.replace(scenario, rounds=args.rounds)
            scenarios[name] = scenario
    if not scenarios:
        raise BenchmarkError(
            f"--scenarios names no scenario: {args.scenarios!r}"
        )
    result = run_bench(scenarios, label=args.label)
    print(render_bench_text(result), file=out)
    if args.out:
        save_bench(result, args.out)
        print(f"wrote {args.out}", file=out)
    _maybe_register(args, result)
    return 0


def _maybe_register(args: argparse.Namespace, result: BenchResult) -> None:
    from repro.obs.registry import resolve_registry

    registry = resolve_registry(getattr(args, "registry", None))
    if registry is None:
        return
    from repro.obs.manifest import RunManifest

    manifest = RunManifest(label=f"bench:{result.label}")
    manifest.created_unix = result.created_unix
    manifest.config = {
        "scenarios": {
            name: run.scenario.to_dict()
            for name, run in result.scenarios.items()
        },
        "cores": result.cores,
    }
    manifest.run_stats = result.metrics()
    for name, run in result.scenarios.items():
        manifest.run_stats[f"{name}.events"] = run.engine.get("events", 0.0)
    registry.append(manifest, kind="bench")


def render_bench_text(result: BenchResult) -> str:
    """Human-readable bench result."""
    table = Table(["metric", "value"], float_format="{:.1f}")
    for name, run in sorted(result.scenarios.items()):
        for metric, value in sorted(run.engine.items()):
            table.add_row([f"{name}.{metric}", value])
    return (
        f"bench {result.label} on {result.cores} core(s)\n{table.render()}"
    )


def render_gate_text(report: GateReport) -> str:
    """Human-readable gate report."""
    lines = [
        f"baseline {report.baseline_label} vs candidate "
        f"{report.candidate_label} (tolerance "
        f"{100.0 * report.tolerance:.0f}%)"
    ]
    table = Table(["metric", "baseline", "candidate", "ratio", "status"])
    for check in report.checks:
        status = "REGRESSED" if check.regressed(report.tolerance) else "ok"
        table.add_row([
            check.name, f"{check.baseline:.1f}", f"{check.candidate:.1f}",
            f"{check.ratio:.3f}", status,
        ])
    lines.append(table.render())
    if report.skipped:
        lines.append(
            f"skipped (measured on one side only): "
            f"{', '.join(report.skipped)}"
        )
    if report.regressions:
        names = ", ".join(c.name for c in report.regressions)
        lines.append(f"FAIL: {len(report.regressions)} regression(s): {names}")
    else:
        lines.append("PASS: no metric regressed beyond the tolerance")
    return "\n".join(lines)


def render_gate_json(report: GateReport) -> str:
    """Machine-readable gate report."""
    payload = {
        "baseline": report.baseline_label,
        "candidate": report.candidate_label,
        "tolerance": report.tolerance,
        "passed": report.passed,
        "checks": [
            {
                "name": c.name,
                "baseline": c.baseline,
                "candidate": c.candidate,
                "ratio": c.ratio,
                "regressed": c.regressed(report.tolerance),
            }
            for c in report.checks
        ],
        "skipped": list(report.skipped),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cmd_gate(args: argparse.Namespace, out: TextIO) -> int:
    check_tolerance(args.tolerance)  # before measuring a fresh candidate
    baseline = load_bench(args.baseline)
    if args.candidate:
        candidate = load_bench(args.candidate)
    else:
        candidate = run_bench(
            {name: run.scenario for name, run in baseline.scenarios.items()},
            label="gate-candidate",
        )
        if args.out:
            save_bench(candidate, args.out)
            print(f"wrote {args.out}", file=out)
    report = gate_bench(baseline, candidate, tolerance=args.tolerance)
    if args.output_format == "json":
        out.write(render_gate_json(report))
    else:
        print(render_gate_text(report), file=out)
    return 0 if report.passed else 1


def run_bench_cli(
    args: argparse.Namespace,
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """Execute ``repro bench`` for parsed ``args``; returns exit code."""
    out: TextIO = stdout if stdout is not None else sys.stdout
    err: TextIO = stderr if stderr is not None else sys.stderr
    handlers = {
        "run": _cmd_run,
        "gate": _cmd_gate,
    }
    try:
        return handlers[args.bench_command](args, out)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=err)
        return 2
