"""Run registry: an append-only, content-addressed store of run records.

A simulation *campaign* — not a single run — is the unit of measurement
once sweeps span thousands of figure points: you want to ask "what did
yesterday's jobs=8 run of fig6 measure?", "did the fault sweep's hit
rate move between these two commits?", without grepping ad-hoc output
directories.  The registry answers those questions with two on-disk
pieces under one root:

* ``index.jsonl`` — one compact JSON line per run (run id, kind, label,
  creation stamp, seed, headline totals/run-stats).  Lines are appended
  with a single ``write`` in ``O_APPEND`` mode and are kept well under
  ``PIPE_BUF``, so concurrent appends from parallel figure runs never
  interleave mid-line;
* ``manifests/<run_id>.json`` — the archived full
  :class:`~repro.obs.manifest.RunManifest` (same JSON format
  ``repro report`` reads), written atomically via temp-file + rename.

A third directory, ``journals/``, holds per-sweep task journals —
the checkpoint files behind ``repro experiment --resume`` (see
:mod:`repro.runtime.journal`); they are written by the runtime layer
and merely *housed* here so one root captures a campaign's full state.

Run ids are *content addresses*: the SHA-256 of the canonical manifest
JSON, truncated to 12 hex chars.  Re-appending a byte-identical
manifest re-uses the archived file and is reported as a duplicate, so
the store only ever grows by distinct runs.

``experiment``, ``simulate``, ``chaos run`` and ``sanitize run``
append automatically when ``--registry DIR`` (or the ``REPRO_REGISTRY``
environment default) is set; ``repro runs list|show|compare|gc``
queries the history.  This module is never imported by the
simulator/experiment hot paths — only when a registry is actually
requested — so disabled runs pay nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import RegistryError
from repro.obs.manifest import RunManifest
from repro.persist.results import _plain, manifest_json

PathLike = Union[str, Path]


class RegistryWarning(UserWarning):
    """A registry read skipped recoverable damage (e.g. a torn line)."""

#: Bump when the index-line schema changes shape incompatibly.
REGISTRY_FORMAT_VERSION = 1

#: Hex chars of the SHA-256 content address kept as the run id.
RUN_ID_LEN = 12

#: Index lines are truncated (summary first) to stay under this, which
#: keeps each append a single atomic ``write`` on POSIX (< PIPE_BUF).
_MAX_LINE_BYTES = 3500

_INDEX_NAME = "index.jsonl"
_MANIFEST_DIR = "manifests"
_JOURNAL_DIR = "journals"


def canonical_manifest_json(manifest: RunManifest) -> str:
    """The canonical JSON serialisation run ids are hashed over."""
    return json.dumps(manifest.to_dict(), sort_keys=True, default=_plain)


def manifest_run_id(manifest: RunManifest) -> str:
    """Content address of a manifest: SHA-256 of its canonical JSON."""
    blob = canonical_manifest_json(manifest).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:RUN_ID_LEN]


@dataclass(frozen=True)
class RunRecord:
    """One compact index entry (the JSONL line, parsed)."""

    run_id: str
    kind: str
    label: str
    created_unix: float
    seed: Optional[int] = None
    summary: Dict[str, float] = field(default_factory=dict)

    def to_line(self) -> str:
        """Serialise as one index line (no trailing newline)."""
        payload: Dict[str, Any] = {
            "v": REGISTRY_FORMAT_VERSION,
            "run_id": self.run_id,
            "kind": self.kind,
            "label": self.label,
            "created_unix": self.created_unix,
            "seed": self.seed,
            "summary": {k: self.summary[k] for k in sorted(self.summary)},
        }
        line = json.dumps(payload, sort_keys=True)
        if len(line.encode("utf-8")) > _MAX_LINE_BYTES:
            payload["summary"] = {}
            line = json.dumps(payload, sort_keys=True)
        return line

    @classmethod
    def from_line(cls, line: str) -> "RunRecord":
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RegistryError(
                f"corrupt registry index line: {line[:80]!r}"
            ) from exc
        if not isinstance(payload, dict) or "run_id" not in payload:
            raise RegistryError(
                f"malformed registry index line: {line[:80]!r}"
            )
        seed = payload.get("seed")
        return cls(
            run_id=str(payload["run_id"]),
            kind=str(payload.get("kind", "run")),
            label=str(payload.get("label", "")),
            created_unix=float(payload.get("created_unix", 0.0)),
            seed=int(seed) if seed is not None else None,
            summary={
                str(k): float(v)
                for k, v in (payload.get("summary") or {}).items()
            },
        )


@dataclass(frozen=True)
class MetricDelta:
    """One compared metric between two runs."""

    name: str
    value_a: Optional[float]
    value_b: Optional[float]

    @property
    def delta(self) -> Optional[float]:
        if self.value_a is None or self.value_b is None:
            return None
        return self.value_b - self.value_a

    @property
    def relative(self) -> Optional[float]:
        """(b - a) / |a|, or None when undefined."""
        if self.value_a is None or self.value_b is None:
            return None
        if self.value_a == 0.0:
            return None
        return (self.value_b - self.value_a) / abs(self.value_a)


@dataclass(frozen=True)
class RunDiff:
    """Structured comparison of two archived runs."""

    record_a: RunRecord
    record_b: RunRecord
    totals: Tuple[MetricDelta, ...]
    run_stats: Tuple[MetricDelta, ...]
    phase_timings: Tuple[MetricDelta, ...]
    config_changes: Tuple[Tuple[str, Any, Any], ...]

    def changed_metrics(self) -> List[MetricDelta]:
        """Every totals/run-stats metric whose value differs."""
        return [
            m for m in (*self.totals, *self.run_stats)
            if m.value_a != m.value_b
        ]


def _diff_numeric(
    a: Dict[str, float], b: Dict[str, float]
) -> Tuple[MetricDelta, ...]:
    names = sorted(set(a) | set(b))
    return tuple(
        MetricDelta(name=n, value_a=a.get(n), value_b=b.get(n))
        for n in names
    )


def diff_manifests(
    record_a: RunRecord,
    manifest_a: RunManifest,
    record_b: RunRecord,
    manifest_b: RunManifest,
) -> RunDiff:
    """Compare two runs' metrics, counters, timings, and configs."""
    config_changes = []
    for key in sorted(set(manifest_a.config) | set(manifest_b.config)):
        left = manifest_a.config.get(key)
        right = manifest_b.config.get(key)
        if left != right:
            config_changes.append((key, left, right))
    return RunDiff(
        record_a=record_a,
        record_b=record_b,
        totals=_diff_numeric(manifest_a.totals, manifest_b.totals),
        run_stats=_diff_numeric(manifest_a.run_stats, manifest_b.run_stats),
        phase_timings=_diff_numeric(
            manifest_a.phase_timings_s, manifest_b.phase_timings_s
        ),
        config_changes=tuple(config_changes),
    )


@dataclass(frozen=True)
class AppendResult:
    """Outcome of one :meth:`RunRegistry.append`."""

    record: RunRecord
    manifest_path: Path
    duplicate: bool


@dataclass(frozen=True)
class GcResult:
    """Outcome of one :meth:`RunRegistry.gc`."""

    kept_records: int
    dropped_records: int
    deleted_manifests: int


#: Headline totals surfaced in the compact index summary, in priority
#: order (the line is truncated summary-first if it ever grows large).
_SUMMARY_KEYS = (
    "requests",
    "avg_latency_ms",
    "hit_rate_local",
    "hit_rate_group",
    "events_per_sec",
    "events",
    "worker_utilization",
    "worker_events_per_sec",
    "testbed_cache_hits",
    "testbed_cache_misses",
    "draws",
)


def _summarise(manifest: RunManifest) -> Dict[str, float]:
    merged = {**manifest.run_stats, **manifest.totals}
    return {key: float(merged[key]) for key in _SUMMARY_KEYS if key in merged}


class RunRegistry:
    """Append-only run history rooted at one directory."""

    def __init__(self, root: PathLike) -> None:
        self._root = Path(root)

    @property
    def root(self) -> Path:
        return self._root

    @property
    def index_path(self) -> Path:
        return self._root / _INDEX_NAME

    @property
    def manifest_dir(self) -> Path:
        return self._root / _MANIFEST_DIR

    def manifest_path(self, run_id: str) -> Path:
        return self.manifest_dir / f"{run_id}.json"

    @property
    def journal_dir(self) -> Path:
        """Where sweep task journals live (see repro.runtime.journal)."""
        return self._root / _JOURNAL_DIR

    def journal_path(self, sweep_id: str) -> Path:
        """The task-journal file for one sweep id."""
        return self.journal_dir / f"{sweep_id}.jsonl"

    # -- writing --------------------------------------------------------

    def append(self, manifest: RunManifest, kind: str = "run") -> AppendResult:
        """Archive ``manifest`` and append its index entry.

        Safe to call concurrently from multiple processes: the manifest
        archive is written atomically (temp + rename) and the index line
        lands in one ``O_APPEND`` write.  A byte-identical manifest is
        detected by its content address and reported as a duplicate
        without growing the store.
        """
        self.manifest_dir.mkdir(parents=True, exist_ok=True)
        run_id = manifest_run_id(manifest)
        path = self.manifest_path(run_id)
        duplicate = path.exists()
        if not duplicate:
            self._write_manifest(path, manifest)
        record = RunRecord(
            run_id=run_id,
            kind=kind,
            label=manifest.label,
            created_unix=manifest.created_unix,
            seed=manifest.seed,
            summary=_summarise(manifest),
        )
        if not duplicate:
            self._append_line(record.to_line())
        return AppendResult(
            record=record, manifest_path=path, duplicate=duplicate
        )

    def _write_manifest(self, path: Path, manifest: RunManifest) -> None:
        # Same bytes repro.persist.save_manifest writes, so `repro
        # report` and load_manifest read archived runs directly.
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.manifest_dir), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(manifest_json(manifest))
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _append_line(self, line: str) -> None:
        data = (line + "\n").encode("utf-8")
        fd = os.open(
            self.index_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, data)
        finally:
            os.close(fd)

    # -- reading --------------------------------------------------------

    def records(self) -> List[RunRecord]:
        """Every readable index entry, in append (chronological) order.

        A writer killed mid-append leaves a torn (truncated) final
        line; a registry query must not be held hostage by it.  Any
        unparseable line is skipped with a :class:`RegistryWarning`
        naming its position — every intact record stays reachable.
        """
        if not self.index_path.exists():
            return []
        records = []
        with open(self.index_path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(RunRecord.from_line(line))
                except RegistryError as exc:
                    warnings.warn(
                        f"skipping unreadable line {number} of "
                        f"{self.index_path} ({exc}); likely a torn "
                        f"append from an interrupted writer",
                        RegistryWarning,
                        stacklevel=2,
                    )
        return records

    def find(self, ref: str) -> RunRecord:
        """Resolve a run reference to a record.

        ``ref`` is a run-id prefix (≥ 4 chars) or a negative ordinal:
        ``-1`` is the most recently appended run, ``-2`` the one before.
        """
        records = self.records()
        if not records:
            raise RegistryError(f"registry at {self._root} holds no runs")
        if ref.lstrip("-").isdigit() and ref.startswith("-"):
            ordinal = int(ref)
            if -len(records) <= ordinal <= -1:
                return records[ordinal]
            raise RegistryError(
                f"run ordinal {ref} out of range "
                f"(registry holds {len(records)} runs)"
            )
        if len(ref) < 4:
            raise RegistryError(
                f"run reference {ref!r} too short (need >= 4 hex chars "
                f"or a negative ordinal like -1)"
            )
        matches = [r for r in records if r.run_id.startswith(ref)]
        # A re-appended run id can legitimately repeat; they are the
        # same content, so any match resolves identically.
        unique_ids = {r.run_id for r in matches}
        if not matches:
            raise RegistryError(f"no run matches {ref!r}")
        if len(unique_ids) > 1:
            listed = ", ".join(sorted(unique_ids))
            raise RegistryError(f"run reference {ref!r} is ambiguous: {listed}")
        return matches[-1]

    def load_manifest(self, ref: str) -> Tuple[RunRecord, RunManifest]:
        """Load the archived manifest behind a run reference."""
        from repro.persist import load_manifest

        record = self.find(ref)
        path = self.manifest_path(record.run_id)
        if not path.exists():
            raise RegistryError(
                f"run {record.run_id} is indexed but its manifest is "
                f"missing ({path}); was it gc'd by hand?"
            )
        return record, load_manifest(path)

    def compare(self, ref_a: str, ref_b: str) -> RunDiff:
        """Diff two archived runs' metrics/counters/timings/config."""
        record_a, manifest_a = self.load_manifest(ref_a)
        record_b, manifest_b = self.load_manifest(ref_b)
        return diff_manifests(record_a, manifest_a, record_b, manifest_b)

    # -- maintenance ----------------------------------------------------

    def gc(self, keep_last: int) -> GcResult:
        """Keep the newest ``keep_last`` runs; drop the rest.

        Rewrites the index atomically and deletes archived manifests no
        longer referenced.  Not safe to run concurrently with writers.
        """
        if keep_last < 0:
            raise ValueError(f"keep_last must be >= 0, got {keep_last}")
        records = self.records()
        kept = records[len(records) - keep_last:] if keep_last else []
        dropped = len(records) - len(kept)

        self._root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(self._root), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                for record in kept:
                    handle.write(record.to_line() + "\n")
            os.replace(tmp_name, self.index_path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

        keep_ids = {record.run_id for record in kept}
        deleted = 0
        if self.manifest_dir.exists():
            for path in sorted(self.manifest_dir.glob("*.json")):
                if path.stem not in keep_ids:
                    path.unlink()
                    deleted += 1
        return GcResult(
            kept_records=len(kept),
            dropped_records=dropped,
            deleted_manifests=deleted,
        )


def resolve_registry(
    root: Optional[PathLike], env: Optional[str] = None
) -> Optional[RunRegistry]:
    """The registry for an explicit root, the env default, or None.

    ``env`` injects the environment lookup for tests; the production
    default is the ``REPRO_REGISTRY`` variable.
    """
    if root is None:
        root = env if env is not None else os.environ.get("REPRO_REGISTRY")
    if not root:
        return None
    return RunRegistry(root)
