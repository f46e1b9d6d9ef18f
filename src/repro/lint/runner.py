"""File discovery and the lint pass itself.

:func:`lint_paths` is the library entry point: it walks the requested
files/directories in sorted order, runs every checker over each parsed
file, applies inline pragma suppressions and the baseline, and returns a
:class:`LintReport` whose findings are canonically ordered — two runs
over the same tree produce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.lint.base import Checker
from repro.lint.baseline import Baseline
from repro.lint.checkers import default_checkers
from repro.lint.findings import Finding, sort_findings
from repro.lint.source import SourceFile

#: Pseudo-rule for files the linter cannot parse at all.  Not part of
#: any checker: a syntax error defeats every other check, so it is
#: always fatal and cannot be pragma-suppressed (pragmas need a parse).
PARSE_ERROR = "parse-error"

#: Directory names never descended into during discovery.
_SKIPPED_DIRS = frozenset({
    "__pycache__", ".git", ".hypothesis", ".pytest_cache", "build", "dist",
})


@dataclass
class LintReport:
    """Outcome of one lint pass."""

    findings: List[Finding] = field(default_factory=list)
    grandfathered: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    checked_files: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def all_findings(self) -> List[Finding]:
        """New + grandfathered findings, canonically ordered."""
        return sort_findings([*self.findings, *self.grandfathered])


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths``, deterministically.

    Files are yielded in sorted posix-path order; hidden directories,
    caches, and ``*.egg-info`` trees are skipped.
    """
    collected: List[Path] = []
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                collected.append(path)
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"lint path does not exist: {path}")
        # Discovery order is normalised by the sort below, so the raw
        # filesystem order never reaches callers.
        for candidate in path.rglob("*.py"):  # repro-lint: allow[iter-order]
            relative_parts = candidate.relative_to(path).parts
            if any(
                part in _SKIPPED_DIRS
                or part.startswith(".")
                or part.endswith(".egg-info")
                for part in relative_parts
            ):
                continue
            collected.append(candidate)
    unique = {file.resolve(): file for file in collected}
    yield from sorted(unique.values(), key=lambda file: file.as_posix())


def display_path(path: Path, root: Optional[Path] = None) -> str:
    """Posix path used in findings: relative to ``root`` when possible."""
    base = (root or Path.cwd()).resolve()
    resolved = path.resolve()
    try:
        return resolved.relative_to(base).as_posix()
    except ValueError:
        return resolved.as_posix()


def load_sources(
    paths: Sequence[Path], root: Optional[Path] = None
) -> List[SourceFile]:
    """Read and parse every Python file under ``paths``, in sorted order.

    Raises :class:`FileNotFoundError` for a path that does not exist.
    """
    return [
        SourceFile(display_path(file, root=root),
                   file.read_text(encoding="utf-8"))
        for file in iter_python_files(paths)
    ]


def lint_source(
    source: SourceFile, checkers: Sequence[Checker]
) -> Tuple[List[Finding], int]:
    """Run ``checkers`` over one parsed file.

    Returns ``(findings, suppressed_count)``; findings are sorted.
    """
    if source.parse_error is not None:
        error = source.parse_error
        return (
            [
                Finding(
                    rule_id=PARSE_ERROR,
                    path=source.display_path,
                    line=error.lineno or 1,
                    message=f"cannot parse file: {error.msg}",
                    col=(error.offset or 1) - 1,
                )
            ],
            0,
        )
    kept: List[Finding] = []
    suppressed = 0
    for checker in checkers:
        for finding in checker.check(source):
            if source.is_suppressed(finding.rule_id, finding.line):
                suppressed += 1
            else:
                kept.append(finding)
    return sort_findings(kept), suppressed


def lint_paths(
    paths: Sequence[Path],
    checkers: Optional[Sequence[Checker]] = None,
    baseline: Optional[Baseline] = None,
    root: Optional[Path] = None,
    project: bool = True,
) -> LintReport:
    """Lint every Python file under ``paths`` and build the report.

    ``root`` anchors the relative paths used in findings and baseline
    keys (defaults to the current working directory).  With ``project``
    (the default) the cross-module passes in :mod:`repro.lint.project`
    also run, over the same parsed sources — files are read and parsed
    exactly once either way.
    """
    active = list(checkers) if checkers is not None else list(default_checkers())
    report = LintReport()
    collected: List[Finding] = []
    sources = load_sources(paths, root=root)
    for source in sources:
        findings, suppressed = lint_source(source, active)
        collected.extend(findings)
        report.suppressed += suppressed
        report.files_checked += 1
        report.checked_files.append(source.display_path)
    if project:
        # Imported lazily so `checkers`-only callers never pay for the
        # graph machinery.
        from repro.lint.project import run_project_passes

        project_findings, project_suppressed = run_project_passes(sources)
        collected.extend(project_findings)
        report.suppressed += project_suppressed
    collected = sort_findings(collected)
    if baseline is not None:
        report.findings, report.grandfathered = baseline.partition(collected)
    else:
        report.findings = collected
    return report
