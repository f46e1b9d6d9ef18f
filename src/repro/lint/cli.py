"""The ``repro lint`` subcommand.

Exit codes: ``0`` — clean (no findings outside the baseline); ``1`` —
new findings; ``2`` — usage error (missing path or baseline).

``repro lint effects [PATHS] [--function QUALNAME] [--format json]``
dumps the whole-program effect table (see :mod:`repro.lint.effects`)
instead of gating: every function's effect class, reads/writes/IO,
entry-point flags, and the effect-rule findings with their call
chains.  It always exits 0 — the gate is the regular ``repro lint``
run, which includes the same four rules.  The JSON output is
deterministic (sorted keys, canonical ordering) so CI can diff it as
an artifact.

``repro lint units [PATHS] [--function QUALNAME] [--format json]``
dumps the per-function unit/time-domain table from the dimensional
analysis (see :mod:`repro.lint.units`): every function's parameter and
return units plus the four dimensional-rule findings.  Like ``effects``
mode it always exits 0 — the gate is the regular ``repro lint`` run —
and the JSON is byte-deterministic for CI artifact diffing.

``--update-baseline`` rewrites the baseline and exits 0: the ratchet
workflow is *fix what you can, then re-baseline the remainder
deliberately* (the diff shows what was grandfathered, so it is
reviewable like any other change).  The rewrite replaces entries for
files that were actually linted, preserves entries for files outside
the linted paths, and prunes entries whose file no longer exists — see
:meth:`repro.lint.baseline.Baseline.merged_update`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, TextIO, Tuple, cast

from repro.lint.baseline import Baseline
from repro.lint.checkers import rule_catalog
from repro.lint.effects import analyze, effect_findings, effect_report
from repro.lint.project import (
    ProjectModel,
    drop_suppressed,
    project_rule_catalog,
)
from repro.lint.reporters import render_json, render_text
from repro.lint.runner import lint_paths, load_sources
from repro.lint.units import analyze_units, unit_findings, unit_report

#: Baseline picked up automatically when present in the working tree.
DEFAULT_BASELINE = "lint_baseline.json"


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``lint`` arguments to an (sub)parser."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src); the first "
             "path may be the literal 'effects' or 'units' to dump the "
             "effect or unit table instead of gating",
    )
    parser.add_argument(
        "--function", metavar="QUALNAME", dest="effects_function",
        help="effects/units mode: restrict the table to one function "
             "(module:qualname, qualname, or bare name)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        dest="output_format", help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline", metavar="PATH",
        help=f"grandfathered-findings file "
             f"(default: {DEFAULT_BASELINE} when it exists)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to the current findings and exit 0",
    )
    parser.add_argument(
        "--no-project", action="store_true",
        help="skip the cross-module call-graph passes "
             "(transitive-wallclock/-rng, stream-label-collision)",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="also list baselined findings in the text report",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every rule id and summary, then exit",
    )


def _resolve_baseline(
    args: argparse.Namespace, stderr: TextIO
) -> Tuple[Optional[Baseline], Optional[Path], int]:
    """Returns (baseline, baseline_path, exit_code!=0 on usage error)."""
    if args.baseline is not None:
        path = Path(args.baseline)
        if not path.exists():
            if args.update_baseline:
                return None, path, 0
            print(f"error: baseline not found: {path}", file=stderr)
            return None, None, 2
        return Baseline.load(path), path, 0
    default = Path(DEFAULT_BASELINE)
    if default.exists():
        return Baseline.load(default), default, 0
    return None, default if args.update_baseline else None, 0


def run_lint(
    args: argparse.Namespace,
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """Execute ``repro lint`` for parsed ``args``; returns the exit code."""
    out: TextIO = stdout if stdout is not None else sys.stdout
    err: TextIO = stderr if stderr is not None else sys.stderr

    if args.list_rules:
        catalog = {**rule_catalog(), **project_rule_catalog()}
        width = max(len(rule_id) for rule_id in catalog)
        for rule_id in sorted(catalog):
            print(f"{rule_id.ljust(width)}  {catalog[rule_id]}", file=out)
        return 0

    if args.paths and args.paths[0] in ("effects", "units"):
        return _dump_table(args, out, err)

    baseline, baseline_path, code = _resolve_baseline(args, err)
    if code != 0:
        return code

    paths: List[Path] = [Path(p) for p in args.paths]
    try:
        report = lint_paths(
            paths, baseline=baseline, project=not args.no_project
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=err)
        return 2

    if args.update_baseline:
        target = baseline_path if baseline_path is not None else Path(
            DEFAULT_BASELINE
        )
        previous = baseline if baseline is not None else Baseline()
        updated = previous.merged_update(
            report.all_findings, report.checked_files
        )
        updated.save(target)
        print(
            f"wrote {target} ({len(updated.entries)} grandfathered "
            f"path::rule entries)",
            file=out,
        )
        return 0

    if args.output_format == "json":
        out.write(render_json(report))
    else:
        print(render_text(report, verbose=args.verbose), file=out)
    return 0 if report.clean else 1


def _dump_table(
    args: argparse.Namespace, out: TextIO, err: TextIO
) -> int:
    """``repro lint effects|units ...``; always 0 unless usage error."""
    try:
        sources = load_sources([Path(p) for p in args.paths[1:] or ["src"]])
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=err)
        return 2
    model = ProjectModel.build(sources)
    function = args.effects_function
    if args.paths[0] == "effects":
        effects = analyze(model)
        findings, _ = drop_suppressed(effect_findings(effects), sources)
        payload = effect_report(effects, findings, function=function)
        render = _render_effects_text
    else:
        units = analyze_units(model)
        findings, _ = drop_suppressed(unit_findings(units), sources)
        payload = unit_report(units, findings, function=function)
        render = _render_units_text
    if args.output_format == "json":
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        render(payload, out, full=function is not None or args.verbose)
    return 0


def _render_units_text(
    payload: Dict[str, object], out: TextIO, full: bool
) -> None:
    functions = cast(List[Dict[str, object]], payload["functions"])
    findings = cast(List[Dict[str, object]], payload["findings"])
    dimensioned = 0
    for row in functions:
        params = cast(Dict[str, str], row["params"])
        if row["returns"] != "dimensionless" or any(
            unit != "dimensionless" for unit in params.values()
        ):
            dimensioned += 1
    print(
        f"{len(functions)} functions analysed, "
        f"{dimensioned} carrying time units",
        file=out,
    )
    shown = 0
    for row in functions:
        params = cast(Dict[str, str], row["params"])
        interesting = row["returns"] != "dimensionless" or any(
            unit != "dimensionless" for unit in params.values()
        )
        if not (full or interesting):
            continue
        shown += 1
        rendered = ", ".join(
            f"{name}: {unit}" for name, unit in params.items()
            if full or unit != "dimensionless"
        )
        print(
            f"  {row['function']}  ({rendered}) -> {row['returns']}",
            file=out,
        )
    hidden = len(functions) - shown
    if hidden > 0:
        print(f"  ... and {hidden} dimensionless functions "
              f"(--verbose shows all)", file=out)
    if findings:
        print(f"{len(findings)} unit finding(s):", file=out)
        for item in findings:
            print(
                f"  {item['path']}:{item['line']}: {item['rule']}: "
                f"{item['message']}",
                file=out,
            )
    else:
        print("no unit findings", file=out)


def _render_effects_text(
    payload: Dict[str, object], out: TextIO, full: bool
) -> None:
    functions = cast(List[Dict[str, object]], payload["functions"])
    globals_rows = cast(List[Dict[str, object]], payload["globals"])
    entries = cast(Dict[str, List[object]], payload["entry_points"])
    findings = cast(List[Dict[str, object]], payload["findings"])
    print(
        f"{len(functions)} functions analysed, "
        f"{len(globals_rows)} tracked globals, "
        f"{len(entries['tasks'])} task entries, "
        f"{len(entries['cache_builders'])} cache builders, "
        f"{len(entries['event_handlers'])} event handlers",
        file=out,
    )
    shown = 0
    for row in functions:
        flags = [
            flag for flag in ("task_entry", "task_reachable",
                              "cache_builder", "event_handler")
            if row[flag]
        ]
        interesting = row["effect"] != "pure" or flags
        if not (full or interesting):
            continue
        shown += 1
        detail = "".join(
            f" {label}={','.join(cast(List[str], row[field_name]))}"
            for label, field_name in (("reads", "reads"),
                                      ("writes", "writes"),
                                      ("io", "io"))
            if row[field_name]
        )
        suffix = f"  [{' '.join(flags)}]" if flags else ""
        print(
            f"  {row['function']}  ({row['effect']}){detail}{suffix}",
            file=out,
        )
    hidden = len(functions) - shown
    if hidden > 0:
        print(f"  ... and {hidden} pure, unflagged functions "
              f"(--verbose shows all)", file=out)
    if globals_rows:
        print("tracked globals:", file=out)
        for grow in globals_rows:
            merge = grow["merge_back"]
            note = f" merge-back: {merge}" if merge else ""
            print(
                f"  {grow['global']}  ({grow['kind']}, "
                f"{grow['path']}:{grow['line']}){note}",
                file=out,
            )
    if findings:
        print(f"{len(findings)} effect finding(s):", file=out)
        for item in findings:
            print(
                f"  {item['path']}:{item['line']}: {item['rule']}: "
                f"{item['message']}",
                file=out,
            )
    else:
        print("no effect findings", file=out)
